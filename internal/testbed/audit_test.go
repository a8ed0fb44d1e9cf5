package testbed

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/trace"
)

// drain advances the clock in one-second steps until every process has
// exited and the event queue is empty, or the budget runs out.
func drain(t *testing.T, tb *Testbed, budget time.Duration) {
	t.Helper()
	deadline := tb.Env.Now() + budget
	for tb.Env.Now() < deadline && (tb.Env.Live() > 0 || tb.Env.Pending() > 0) {
		tb.Env.Run(tb.Env.Now() + time.Second)
	}
	if tb.Env.Live() > 0 || tb.Env.Pending() > 0 {
		t.Fatalf("testbed did not drain: %d live processes, %d pending events", tb.Env.Live(), tb.Env.Pending())
	}
}

// A stopped closed-loop workload must drain the whole deployment to
// quiescence: zero live processes, an empty event queue, and a clean
// quiescent audit — the foundation a draining trial's quiescent audit (the
// chaos conservation oracle) stands on.
func TestClosedWorkloadDrainsToQuiescence(t *testing.T) {
	tb, err := Build(Options{Hardware: Hardware{1, 1, 1, 1}, Soft: SoftAlloc{50, 6, 6}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	cfg := rubbos.DefaultClientConfig(30)
	cfg.ThinkMean = 300 * time.Millisecond
	cfg.RampUp = time.Second
	w, err := tb.StartWorkload(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.Env.Run(10 * time.Second)
	if errs := tb.Audit(false); len(errs) > 0 {
		t.Fatalf("mid-run audit violations: %v", errs)
	}
	if w.Completed() == 0 {
		t.Fatal("no requests completed; drain test is vacuous")
	}
	// The testbed audits the workload it started: a quiescent audit of a
	// workload still running names it.
	if errs := tb.Audit(true); !strings.Contains(fmt.Sprint(errs), "never stopped") {
		t.Errorf("quiescent audit of a running workload = %v, want it to name the unstopped workload", errs)
	}

	w.Stop()
	drain(t, tb, time.Minute)
	if errs := tb.Audit(true); len(errs) > 0 {
		t.Errorf("quiescent audit violations: %v", errs)
	}
	if n := w.InFlight(); n != 0 {
		t.Errorf("%d requests in flight after drain", n)
	}
}

// The open-system pump and the FIN-load follower must honor Stop too.
func TestOpenWorkloadDrainsToQuiescence(t *testing.T) {
	tb, err := Build(Options{Hardware: Hardware{1, 1, 1, 1}, Soft: SoftAlloc{50, 6, 6}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	w, err := tb.StartOpenWorkload(rubbos.OpenConfig{
		Arrivals: trace.Poisson(40),
		Matrix:   rubbos.BrowseOnlyMix(),
		Seed:     1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.Env.Run(10 * time.Second)
	if w.Completed() == 0 {
		t.Fatal("no requests completed")
	}
	w.Stop()
	drain(t, tb, time.Minute)
	if errs := tb.Audit(true); len(errs) > 0 {
		t.Errorf("quiescent audit violations: %v", errs)
	}
}
