package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/testbed"
)

// campaignConfig is the acceptance-test campaign: the paper's 1/2/1/2
// hardware with a compressed timeline, 5 topology seeds × 10 plans.
func campaignConfig() CampaignConfig {
	trial := TrialConfig{
		Run: experiment.RunConfig{
			Testbed: testbed.Options{
				Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
				Soft:     testbed.SoftAlloc{WebThreads: 50, AppThreads: 6, AppConns: 6},
			},
			Users:     10,
			ThinkMean: 400 * time.Millisecond,
			RampUp:    time.Second,
		},
		Baseline:    3 * time.Second,
		Grace:       2 * time.Second,
		Recovery:    3 * time.Second,
		DrainBudget: 30 * time.Second,
	}
	return CampaignConfig{
		Trial:        trial,
		Gen:          GenConfig{Horizon: 5 * time.Second, MinEvents: 1, MaxEvents: 4, JitterFrac: 0.1},
		BaseSeed:     1,
		Seeds:        5,
		PlansPerSeed: 10,
	}
}

// The headline crash-safety acceptance: a 50-plan campaign interrupted
// mid-flight resumes from its journal, finishes, and a later resume
// restores every outcome byte-identically without re-simulating.
func TestCampaignResumeCrashSafety(t *testing.T) {
	cfg := campaignConfig()
	cfg.Gen.Targets = testTargets(t) // same 1/2/1/2 surface
	dir := filepath.Join(t.TempDir(), "state")
	fp := cfg.Fingerprint()

	// Phase 1: cancel after a handful of verdicts.
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	fresh := 0
	cfg.Trial.Run.Ctx = ctx
	cfg.OnVerdict = func(o Outcome, restored bool) {
		mu.Lock()
		defer mu.Unlock()
		fresh++
		if fresh == 8 {
			cancel()
		}
	}
	st, err := experiment.OpenState(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trial.Run.State = st
	if _, err := RunCampaign(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign returned %v, want context.Canceled", err)
	}
	st.Close()
	mu.Lock()
	interrupted := fresh
	mu.Unlock()
	if interrupted >= cfg.Seeds*cfg.PlansPerSeed {
		t.Fatalf("cancellation landed too late to exercise resume (%d trials done)", interrupted)
	}

	// Phase 2: resume and finish all 50.
	restored, freshAfter := 0, 0
	cfg.Trial.Run.Ctx = nil
	cfg.OnVerdict = func(o Outcome, r bool) {
		mu.Lock()
		defer mu.Unlock()
		if r {
			restored++
		} else {
			freshAfter++
		}
	}
	if st, err = experiment.OpenState(dir, fp, true); err != nil {
		t.Fatal(err)
	}
	cfg.Trial.Run.State = st
	full, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if len(full) != 50 {
		t.Fatalf("campaign resolved %d trials, want 50", len(full))
	}
	if restored == 0 || freshAfter == 0 {
		t.Fatalf("resume did not mix restored (%d) and fresh (%d) trials", restored, freshAfter)
	}
	for i, o := range full {
		if o.Verdict == nil || o.Key == "" {
			t.Fatalf("trial %d unresolved: %+v", i, o)
		}
	}

	// Phase 3: everything restores from the journal, byte-identically.
	restoredOnly := 0
	cfg.OnVerdict = func(o Outcome, r bool) {
		mu.Lock()
		defer mu.Unlock()
		if !r {
			t.Errorf("trial %s re-simulated on a fully journaled campaign", o.Key)
		}
		restoredOnly++
	}
	if st, err = experiment.OpenState(dir, fp, true); err != nil {
		t.Fatal(err)
	}
	cfg.Trial.Run.State = st
	replay, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if !reflect.DeepEqual(full, replay) {
		t.Fatal("journaled outcomes differ from the run that produced them")
	}
}

// Chaos keys ("seed=S/plan=P") name no population, and the fingerprint
// leaves it out as every RunConfig image does, so the journal's name must
// carry it: a campaign resumed at another population restores nothing.
func TestCampaignResumeAtAnotherPopulationRestoresNothing(t *testing.T) {
	cfg := campaignConfig()
	cfg.Gen.Targets = testTargets(t)
	cfg.Seeds, cfg.PlansPerSeed = 1, 2
	dir := filepath.Join(t.TempDir(), "state")
	run := func(users int, resume bool) (restored int) {
		t.Helper()
		st, err := experiment.OpenState(dir, cfg.Fingerprint(), resume)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var mu sync.Mutex
		cfg.Trial.Run.Users, cfg.Trial.Run.State = users, st
		cfg.OnVerdict = func(_ Outcome, r bool) {
			mu.Lock()
			defer mu.Unlock()
			if r {
				restored++
			}
		}
		if _, err := RunCampaign(cfg); err != nil {
			t.Fatal(err)
		}
		return restored
	}
	run(10, false)
	if n := run(10, true); n != 2 {
		t.Fatalf("resume at the same population restored %d outcomes, want 2", n)
	}
	if n := run(20, true); n != 0 {
		t.Errorf("resume at another population restored %d outcomes, want 0", n)
	}
}

// The planted-bug acceptance: with every leak revert restoring one unit
// too few, the conservation oracle must flag each leak-carrying plan, and
// shrinking must reduce it to a minimal (≤2 events, here 1) reproducer
// that replays from its seed and from its JSON form.
func TestCampaignPlantedBugShrinksToMinimalRepro(t *testing.T) {
	cfg := campaignConfig()
	all := testTargets(t)
	// Leak-only generation guarantees every plan carries the trigger.
	cfg.Gen = GenConfig{
		Targets:   TargetSet{Pools: all.Pools},
		Horizon:   5 * time.Second,
		MinEvents: 2,
		MaxEvents: 4,
	}
	cfg.Trial.LeakRestoreDeficit = 1
	cfg.Seeds, cfg.PlansPerSeed = 1, 3
	cfg.ShrinkBudget = 60

	out, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range out {
		if o.Verdict.Class != ClassInvariant {
			t.Fatalf("%s: class %q, want %q (violations %v)", o.Key, o.Verdict.Class, ClassInvariant, o.Verdict.Violations)
		}
		named := false
		for _, viol := range o.Verdict.Violations {
			if strings.Contains(viol, "leak") {
				named = true
			}
		}
		if !named {
			t.Fatalf("%s: no violation names the leak: %v", o.Key, o.Verdict.Violations)
		}
		if o.Shrunk == nil {
			t.Fatalf("%s: failing plan was not shrunk", o.Key)
		}
		if n := len(o.Shrunk.Events); n > 2 {
			t.Fatalf("%s: minimal repro has %d events, want <= 2: %v", o.Key, n, o.Shrunk.Events)
		}

		// The plan regenerates from its journaled seed...
		if regen := cfg.Gen.Generate(o.PlanSeed); !reflect.DeepEqual(regen, o.Plan) {
			t.Fatalf("%s: plan does not regenerate from seed %d", o.Key, o.PlanSeed)
		}
		// ...and the minimized repro reproduces the defect from a fresh
		// trial, both directly and after a JSON round trip.
		tcfg := cfg.Trial
		tcfg.Run.Testbed.Seed = o.TopoSeed
		v, err := RunTrial(tcfg, *o.Shrunk)
		if err != nil {
			t.Fatal(err)
		}
		if v.Class != ClassInvariant {
			t.Fatalf("%s: minimal repro no longer reproduces (class %q)", o.Key, v.Class)
		}
		data, err := json.Marshal(o.Shrunk)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := fault.ParsePlan(data)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := RunTrial(tcfg, loaded)
		if err != nil {
			t.Fatal(err)
		}
		if v2.Class != ClassInvariant {
			t.Fatalf("%s: JSON-round-tripped repro no longer reproduces", o.Key)
		}
	}
}

// A clean campaign — faults that all revert, no planted bug — must pass
// both oracles on every trial with zero violations.
func TestCampaignCleanRunsPass(t *testing.T) {
	cfg := campaignConfig()
	// Brown-outs and spikes only: the faults that hold no server down, so
	// the tiny recovery window is judged against an undisturbed drain.
	cfg.Gen = GenConfig{
		Targets:   TargetSet{CPUs: testTargets(t).CPUs, Links: []string{"link"}},
		Horizon:   5 * time.Second,
		MinEvents: 1,
		MaxEvents: 3,
	}
	cfg.Seeds, cfg.PlansPerSeed = 2, 3
	out, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range out {
		if o.Verdict.Failed() || len(o.Verdict.Violations) != 0 {
			t.Errorf("%s: class=%q violations=%v", o.Key, o.Verdict.Class, o.Verdict.Violations)
		}
		if !o.Verdict.Drained {
			t.Errorf("%s: did not drain", o.Key)
		}
	}
}
