package chaos

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
)

// tinyTrial is a deliberately small deployment and timeline so a full
// trial (ramp, baseline, faults, recovery, drain, audit) runs in well
// under a second of wall clock.
func tinyTrial() TrialConfig {
	return TrialConfig{
		Run: experiment.RunConfig{
			Testbed: testbed.Options{
				Hardware: testbed.Hardware{Web: 1, App: 1, Mid: 1, DB: 1},
				Soft:     testbed.SoftAlloc{WebThreads: 50, AppThreads: 6, AppConns: 6},
				Seed:     1,
			},
			Users:     12,
			ThinkMean: 400 * time.Millisecond,
			RampUp:    2 * time.Second,
		},
		Baseline:    5 * time.Second,
		Grace:       3 * time.Second,
		Recovery:    5 * time.Second,
		DrainBudget: 30 * time.Second,
	}
}

// A run whose faults all revert must pass both oracles with zero
// violations — the baseline the planted-bug detection stands against.
func TestCleanTrialPassesBothOracles(t *testing.T) {
	plan := fault.Plan{Events: []fault.Event{
		fault.Brownout("apache1", 1*time.Second, 3*time.Second, 0.5),
		fault.NetSpike("link", 2*time.Second, 4*time.Second, 3*time.Millisecond),
		fault.ConnLeak("tomcat1/conns", 1*time.Second, 4*time.Second, 2),
	}}
	v, err := RunTrial(tinyTrial(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if v.Failed() || len(v.Violations) != 0 {
		t.Fatalf("clean trial failed: class=%q violations=%v", v.Class, v.Violations)
	}
	if !v.Drained {
		t.Fatal("trial did not drain")
	}
	if v.Baseline.Completions == 0 || v.Recovery.Completions == 0 {
		t.Fatalf("empty measurement windows: %+v %+v", v.Baseline, v.Recovery)
	}
	if v.Faults != 6 {
		t.Errorf("recorded %d injector actions, want 6 (3 applies + 3 reverts)", v.Faults)
	}
}

// The planted revert-deficit bug must be caught by the conservation
// oracle, classed as an invariant violation that names the leak.
func TestPlantedLeakDeficitCaught(t *testing.T) {
	cfg := tinyTrial()
	cfg.LeakRestoreDeficit = 1
	plan := fault.Plan{Events: []fault.Event{
		fault.ConnLeak("tomcat1/conns", 1*time.Second, 3*time.Second, 2),
	}}
	v, err := RunTrial(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if v.Class != ClassInvariant {
		t.Fatalf("class = %q, want %q (violations %v)", v.Class, ClassInvariant, v.Violations)
	}
	found := false
	for _, viol := range v.Violations {
		if strings.Contains(viol, "leak") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no violation names the leak: %v", v.Violations)
	}
}

func TestPlantedBugRejectsJitteredPlan(t *testing.T) {
	cfg := tinyTrial()
	cfg.LeakRestoreDeficit = 1
	plan := fault.Plan{
		Events:     []fault.Event{fault.ConnLeak("tomcat1/conns", time.Second, 2*time.Second, 1)},
		JitterFrac: 0.2,
	}
	if _, err := RunTrial(cfg, plan); err == nil {
		t.Fatal("jittered plan accepted with a planted revert deficit")
	}
}

// Identical configuration and plan must produce identical verdicts — the
// property that makes journaled resumes and seed-based repros exact.
func TestTrialDeterministic(t *testing.T) {
	plan := fault.Plan{
		Events: []fault.Event{
			fault.Crash("tomcat1", 1*time.Second, 2*time.Second),
			fault.Brownout("mysql1", 1500*time.Millisecond, 3*time.Second, 0.4),
		},
		JitterFrac: 0.3,
	}
	a, err := RunTrial(tinyTrial(), plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(tinyTrial(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("verdicts differ:\n%+v\n%+v", a, b)
	}
}

// A model bug that panics is a deterministic verdict, not an error: the
// experiment runner's *PanicError becomes a ClassPanic verdict that names
// the panic, so campaigns journal and shrink it like any other failure.
func TestPanicIsClassPanicVerdict(t *testing.T) {
	cfg := tinyTrial()
	cfg.Run.Testbed.TuneTomcat = func(*tier.TomcatConfig) { panic("planted tomcat panic") }
	v, err := RunTrial(cfg, fault.Plan{Events: []fault.Event{
		fault.Crash("apache1", time.Second, 2*time.Second),
	}})
	if err != nil {
		t.Fatalf("RunTrial err = %v, want a verdict", err)
	}
	if v.Class != ClassPanic || len(v.Violations) != 1 || !strings.Contains(v.Violations[0], "planted tomcat panic") {
		t.Fatalf("verdict = %+v, want one ClassPanic violation naming the panic", v)
	}
}

func TestTrialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := tinyTrial()
	cfg.Run.Ctx = ctx
	_, err := RunTrial(cfg, fault.Plan{Events: []fault.Event{
		fault.Crash("apache1", time.Second, 2*time.Second),
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A trial past its wall-clock budget is interrupted by the shared
// experiment watchdog and returns a *experiment.TimeoutError, not a
// verdict: timeouts are environmental, so campaigns retry them.
func TestTrialTimeoutReturnsTimeoutError(t *testing.T) {
	cfg := tinyTrial()
	cfg.Run.Users = 300
	// A year of simulated baseline takes far longer than a test's wall
	// time, so the watchdog interrupts the trial before it can finish.
	cfg.Baseline = 365 * 24 * time.Hour
	cfg.Run.TrialTimeout = time.Nanosecond
	plan := fault.Plan{Events: []fault.Event{fault.Crash("tomcat1", time.Second, 2*time.Second)}}
	v, err := RunTrial(cfg, plan)
	var te *experiment.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("RunTrial err = %v, want *experiment.TimeoutError", err)
	}
	if v != nil {
		t.Errorf("timed-out trial returned a verdict: %+v", v)
	}
	if te.Timeout != time.Nanosecond {
		t.Errorf("TimeoutError.Timeout = %v, want 1ns", te.Timeout)
	}
}
