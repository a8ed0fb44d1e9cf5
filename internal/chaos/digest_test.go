package chaos

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
)

var updatePins = flag.Bool("update-pins", false, "log a fresh digest pin instead of checking it")

// TestDigestPins pins, at full precision, one chaos trial on a resilient
// 1/2/1/2 under a fixed-seed plan that crashes an application server,
// browns out a database, leaks connections and spikes the link, all
// overlapping: the verdict (class, violations, both measurement windows
// with floats as their bits, drained), the injector's action count and the
// workload's conservation buckets after the drain. A rewrite that keeps
// the simulation byte-identical keeps the pin.
//
// After an intentional behaviour change, regenerate with
//
//	go test ./internal/chaos -run DigestPins -update-pins -v
//
// and name the changed pin in CHANGES.md.
func TestDigestPins(t *testing.T) {
	const want = "33ab1a49713216882beb5bba"
	res := tier.DefaultResilienceConfig()
	cfg := TrialConfig{
		Topology: testbed.Options{
			Hardware:   testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
			Soft:       testbed.SoftAlloc{WebThreads: 100, AppThreads: 10, AppConns: 6},
			Seed:       5,
			Resilience: &res,
		},
		Users:       300,
		ThinkMean:   500 * time.Millisecond,
		RampUp:      2 * time.Second,
		Baseline:    4 * time.Second,
		Grace:       3 * time.Second,
		Recovery:    4 * time.Second,
		DrainBudget: 30 * time.Second,
	}
	plan := fault.Plan{
		Events: []fault.Event{
			fault.Crash("tomcat2", 500*time.Millisecond, 2*time.Second),
			fault.Brownout("mysql1", 1*time.Second, 3*time.Second, 0.3),
			fault.ConnLeak("tomcat1/conns", 1*time.Second, 2500*time.Millisecond, 3),
			fault.NetSpike("link", 1500*time.Millisecond, 2500*time.Millisecond, 4*time.Millisecond),
		},
		JitterFrac: 0.2,
	}
	v, err := RunTrial(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	bits := func(f float64) string { return fmt.Sprintf("%x", math.Float64bits(f)) }
	fmt.Fprintf(h, "class %q violations %q drained %t faults %d\n", v.Class, v.Violations, v.Drained, v.Faults)
	for _, w := range []WindowStats{v.Baseline, v.Recovery} {
		fmt.Fprintf(h, "w %d %d %s %d\n", w.Completions, w.Errors, bits(w.Goodput), int64(w.P95))
	}
	r := v.Requests
	fmt.Fprintf(h, "r %d %d %d %d %d\n", r.Issued, r.Completed, r.Failed, r.Shed, r.InFlight)
	got := fmt.Sprintf("%x", h.Sum(nil)[:12])
	summary := fmt.Sprintf("class %q, %d faults, baseline %.1f/s, recovery %.1f/s, requests %+v",
		v.Class, v.Faults, v.Baseline.Goodput, v.Recovery.Goodput, r)
	if *updatePins {
		t.Logf("pin chaos-resilient-plan: %q (%s)", got, summary)
		return
	}
	if got != want {
		t.Errorf("digest %s, pinned %s (%s)", got, want, summary)
	}
}
