package experiment

import (
	"math"
	"testing"
	"time"

	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

// floodOutcome is one protected open trial: its goodput, the most requests
// in flight at any 100 ms sample, and the bound on them.
type floodOutcome struct {
	goodput  float64
	inFlight int
	bound    int
}

// runFlood drives the protected 1/2/1/2 with Poisson arrivals at rate for a
// 1 s ramp and a 3 s measurement, sampling the workload's in-flight count
// every 100 ms, then stops the workload, drains it and audits the
// deployment and the workload's request conservation.
func runFlood(t *testing.T, rate float64) floodOutcome {
	t.Helper()
	const (
		deadline = 2 * time.Second
		ramp     = time.Second
		measure  = 3 * time.Second
	)
	res := OverloadProtection()
	tb, err := testbed.Build(testbed.Options{
		Hardware:   testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
		Soft:       testbed.SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 6},
		Seed:       1,
		Resilience: res,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	env := tb.Env

	window := sla.NewCollector([]time.Duration{deadline})
	collect := func(_ *rubbos.Interaction, issued, rt time.Duration, rerr error) {
		if issued >= ramp && rerr == nil {
			window.Observe(rt)
		}
	}
	wl, err := tb.StartOpenWorkload(rubbos.OpenConfig{
		Arrivals: trace.Poisson(rate),
		Matrix:   rubbos.BrowseOnlyMix(),
		Seed:     1,
		Deadline: deadline,
	}, collect)
	if err != nil {
		t.Fatal(err)
	}

	hops := int(math.Ceil(rate * 2 * testbed.LinkLatency.Seconds()))
	out := floodOutcome{bound: res.Backlog + tb.Apaches[0].Workers.Capacity() + 2*hops}
	for at := 100 * time.Millisecond; at <= ramp+measure; at += 100 * time.Millisecond {
		env.Run(at)
		out.inFlight = max(out.inFlight, wl.InFlight())
	}
	window.SetElapsed(measure)
	out.goodput = window.Goodput(deadline)

	wl.Stop()
	for drain := env.Now() + 10*time.Second; (wl.InFlight() > 0 || env.Live() > 0) && env.Now() < drain; {
		env.Run(env.Now() + 100*time.Millisecond)
	}
	for _, aerr := range tb.Audit(true) {
		t.Errorf("rate %g: %v", rate, aerr)
	}
	if err := wl.AuditQuiescent(); err != nil {
		t.Errorf("rate %g: %v", rate, err)
	}
	if done := wl.Completed() + wl.Shed() + wl.Failed(); wl.Issued() != done || wl.InFlight() != 0 {
		t.Errorf("rate %g: issued %d, completed %d + shed %d + failed %d = %d, %d in flight",
			rate, wl.Issued(), wl.Completed(), wl.Shed(), wl.Failed(), done, wl.InFlight())
	}
	return out
}

// TestFloodKeepsCapacityGoodput is overload protection's acceptance at
// scale: offered 20x and 200x (10^6 open-equivalent users) the capacity of
// the protected 1/2/1/2, the accept backlog drops the excess at no CPU
// cost, so goodput stays within 10% of the same topology's at its 700 req/s
// capacity and the requests in flight stay bounded by the backlog, the
// workers and the requests on the wire.
func TestFloodKeepsCapacityGoodput(t *testing.T) {
	if testing.Short() {
		t.Skip("flood acceptance runs 12 simulated seconds; skipped with -short")
	}
	capacity := runFlood(t, 700).goodput
	if capacity < 600 {
		t.Fatalf("goodput %.1f req/s at 700 req/s, implausibly low for the topology", capacity)
	}
	for _, rate := range []float64{14285, 142857} {
		out := runFlood(t, rate)
		if out.goodput < 0.9*capacity {
			t.Errorf("rate %g: goodput %.1f req/s, want >= 90%% of %.1f at capacity", rate, out.goodput, capacity)
		}
		if out.inFlight > out.bound {
			t.Errorf("rate %g: %d requests in flight, want <= %d", rate, out.inFlight, out.bound)
		}
		t.Logf("rate %g: goodput %.1f req/s (capacity %.1f), peak in flight %d of bound %d",
			rate, out.goodput, capacity, out.inFlight, out.bound)
	}
}
