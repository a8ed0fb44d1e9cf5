package experiment

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/tier"
	"github.com/softres/ntier/internal/trace"
)

func TestOpenStateLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	st, err := OpenState(dir, "fp", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening without -resume is an operator mistake, not a silent restart.
	if _, err := OpenState(dir, "fp", false); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("reopen without resume: err = %v, want a pass-resume hint", err)
	}
	// A different configuration must never attach to this run's journals.
	if _, err := OpenState(dir, "other-fp", true); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("reopen with foreign fingerprint: err = %v, want ErrFingerprintMismatch", err)
	}
	st, err = OpenState(dir, "fp", true)
	if err != nil {
		t.Fatalf("legitimate resume refused: %v", err)
	}
	st.Close()
}

func TestOpenStateRefusesForeignDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not-a-run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenState(dir, "fp", false); err == nil || !strings.Contains(err.Error(), "not a run-state directory") {
		t.Fatalf("err = %v, want a not-a-run-state-directory refusal", err)
	}
}

// TestResumeDeterminism is the crash-safety acceptance test: a sweep
// canceled after trial k, resumed in a fresh invocation, must produce
// byte-identical output to an uninterrupted sweep, re-running only the
// missing trials.
func TestResumeDeterminism(t *testing.T) {
	users := []int{300, 500, 700}

	reference, err := WorkloadSweep(fastSweepConfig(1), users)
	if err != nil {
		t.Fatal(err)
	}
	want := renderSweep(t, reference)

	dir := filepath.Join(t.TempDir(), "run")
	const fp = "resume-determinism"

	// First invocation: serial sweep, canceled by the OnTrial hook as soon
	// as the first trial has been journaled.
	st, err := OpenState(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := fastSweepConfig(1)
	base.State = st
	base.Ctx = ctx
	base.OnTrial = func(key string, restored bool, err error) { cancel() }
	if _, err := WorkloadSweep(base, users); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep err = %v, want context.Canceled", err)
	}
	if got := st.completed(); got != 1 {
		t.Fatalf("journaled %d trials before cancellation, want 1", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Second invocation: resume. Exactly one trial restores from the
	// journal; the other two simulate fresh.
	st, err = OpenState(dir, fp, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var mu sync.Mutex
	restored, fresh := 0, 0
	base = fastSweepConfig(1)
	base.State = st
	base.OnTrial = func(key string, wasRestored bool, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			t.Errorf("trial %s failed on resume: %v", key, err)
		}
		if wasRestored {
			restored++
		} else {
			fresh++
		}
	}
	resumed, err := WorkloadSweep(base, users)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 || fresh != 2 {
		t.Errorf("resume restored %d and ran %d trials, want 1 restored / 2 fresh", restored, fresh)
	}
	if got := renderSweep(t, resumed); got != want {
		t.Errorf("resumed sweep output differs from uninterrupted sweep:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// poisonTomcat returns a tuning hook that panics while building any
// testbed whose Tomcat thread pool has the given size — a deterministic
// model bug at exactly one point of an allocation grid.
func poisonTomcat(size int, calls *atomic.Int64) func(*tier.TomcatConfig) {
	return func(c *tier.TomcatConfig) {
		if calls != nil {
			calls.Add(1)
		}
		if c.Threads == size {
			panic("poisoned tomcat config")
		}
	}
}

// TestWindowedTrialsContainPanics: a model bug inside a fault scenario, a
// flash crowd or an elastic day comes back as a *PanicError, as it does
// from Run, instead of killing the caller's worker pool.
func TestWindowedTrialsContainPanics(t *testing.T) {
	base := fastSweepConfig(1)
	base.Users = 100
	base.Testbed.TuneTomcat = poisonTomcat(base.Testbed.Soft.AppThreads, nil)
	cases := []struct {
		name string
		run  func() error
	}{
		{"scenario", func() error {
			run := base
			run.Testbed.Resilience = defaultScenarioResilience()
			_, err := RunScenario(ScenarioConfig{Run: run})
			return err
		}},
		{"flash-crowd", func() error {
			_, err := RunFlashCrowd(FlashCrowdConfig{Run: base, BaseRate: 50})
			return err
		}},
		{"elastic", func() error {
			tr := ElasticTrace{Name: "steady", Spec: trace.Poisson(50)}
			_, err := RunElastic(ElasticSweepConfig{Run: base}, adaptive.PolicyStatic, tr)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var pe *PanicError
			if err := tc.run(); !errors.As(err, &pe) || pe.Value != "poisoned tomcat config" {
				t.Fatalf("err = %v, want the poisoned build's *PanicError", err)
			}
		})
	}
}

func TestAllocSweepIsolatesPanickingTrial(t *testing.T) {
	users := []int{300}
	sizes := []int{4, 15}
	base := fastSweepConfig(2)
	base.Testbed.TuneTomcat = poisonTomcat(4, nil)
	points, err := AllocSweep(base, users, sizes, VaryAppThreads)
	if err != nil {
		t.Fatalf("a contained trial panic aborted the sweep: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}

	var pe *PanicError
	if perr := points[0].Curve.Errs[0]; !errors.As(perr, &pe) {
		t.Fatalf("poisoned point error = %v, want *PanicError", perr)
	}
	if pe.Value != "poisoned tomcat config" || pe.Stack == "" {
		t.Errorf("PanicError = {Value: %v, Stack: %d bytes}, want the panic value and a stack", pe.Value, len(pe.Stack))
	}
	if points[0].Curve.Results[0] != nil {
		t.Error("poisoned point has a Result alongside its error")
	}
	if points[0].Curve.Err() == nil {
		t.Error("Curve.Err() = nil for the poisoned curve")
	}

	// The healthy grid point completed normally.
	if points[1].Curve.Err() != nil {
		t.Fatalf("healthy point failed: %v", points[1].Curve.Err())
	}
	if points[1].Curve.Results[0] == nil {
		t.Fatal("healthy point has no Result")
	}

	// The CSV dataset renders the failure as an error row, not a crash.
	var b strings.Builder
	if err := points[0].Curve.WriteCSV(&b, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "trial panicked") {
		t.Errorf("CSV lacks the error row:\n%s", b.String())
	}
}

// TestPanicJournaledAndReplayedOnResume: panics are deterministic
// functions of the configuration, so a resumed campaign replays the
// journaled failure instead of re-simulating it.
func TestPanicJournaledAndReplayedOnResume(t *testing.T) {
	users := []int{300}
	dir := filepath.Join(t.TempDir(), "run")
	const fp = "panic-replay"

	st, err := OpenState(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	var firstCalls atomic.Int64
	base := fastSweepConfig(1)
	base.State = st
	base.Testbed.Soft.AppThreads = 4
	base.Testbed.TuneTomcat = poisonTomcat(4, &firstCalls)
	c, err := WorkloadSweep(base, users)
	if err != nil {
		t.Fatal(err)
	}
	if c.Errs[0] == nil {
		t.Fatal("poisoned trial did not fail")
	}
	if firstCalls.Load() == 0 {
		t.Fatal("tuning hook never ran on the first pass")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = OpenState(dir, fp, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var resumeCalls atomic.Int64
	restored := false
	base = fastSweepConfig(1)
	base.State = st
	base.Testbed.Soft.AppThreads = 4
	base.Testbed.TuneTomcat = poisonTomcat(4, &resumeCalls)
	base.OnTrial = func(key string, wasRestored bool, err error) { restored = wasRestored }
	c, err = WorkloadSweep(base, users)
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if !errors.As(c.Errs[0], &pe) || pe.Value != "poisoned tomcat config" {
		t.Fatalf("replayed error = %v, want the journaled panic", c.Errs[0])
	}
	if !restored {
		t.Error("OnTrial reported a fresh run, want a journal replay")
	}
	if resumeCalls.Load() != 0 {
		t.Errorf("tuning hook ran %d times on resume, want 0 (no simulation)", resumeCalls.Load())
	}
}

// TestTimeoutNotJournaled: watchdog timeouts are environmental, so a
// resumed campaign must retry the trial rather than replay the failure.
func TestTimeoutNotJournaled(t *testing.T) {
	users := []int{300}
	dir := filepath.Join(t.TempDir(), "run")
	const fp = "timeout-retry"

	st, err := OpenState(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	base := fastSweepConfig(1)
	base.State = st
	// A year of simulated load takes far longer than a test's wall time, so
	// the watchdog interrupts the trial before it can finish.
	base.Measure = 365 * 24 * time.Hour
	base.TrialTimeout = time.Nanosecond
	c, err := WorkloadSweep(base, users)
	if err != nil {
		t.Fatal(err)
	}
	var te *TimeoutError
	if !errors.As(c.Errs[0], &te) {
		t.Fatalf("trial error = %v, want *TimeoutError", c.Errs[0])
	}
	if st.completed() != 0 {
		t.Fatalf("journaled %d trials, want 0 — timeouts must not be journaled", st.completed())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = OpenState(dir, fp, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base = fastSweepConfig(1)
	base.State = st
	c, err = WorkloadSweep(base, users) // no timeout this time
	if err != nil {
		t.Fatal(err)
	}
	if c.Err() != nil {
		t.Fatalf("retried trial failed: %v", c.Err())
	}
	if c.Results[0] == nil {
		t.Fatal("retried trial has no Result")
	}
}

func TestForEachIndexCtxCancellation(t *testing.T) {
	// Serial: cancellation is honored between trials.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	err := ForEachIndex(ctx, 10, 1, func(i int) error {
		ran++
		if i == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("serial err = %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Errorf("serial ran %d trials after cancel at index 2, want 3", ran)
	}

	// Parallel: a pre-canceled context claims nothing.
	done, dcancel := context.WithCancel(context.Background())
	dcancel()
	var parRan atomic.Int64
	err = ForEachIndex(done, 10, 4, func(i int) error {
		parRan.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled parallel err = %v, want context.Canceled", err)
	}
	if parRan.Load() != 0 {
		t.Errorf("pre-canceled parallel ran %d trials, want 0", parRan.Load())
	}

	// A trial error takes precedence over concurrent cancellation.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	boom := errors.New("boom")
	err = ForEachIndex(ctx2, 8, 1, func(i int) error {
		if i == 1 {
			cancel2()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the trial error to win over cancellation", err)
	}
}

func TestRunRefusesCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := fastSweepConfig(1)
	cfg.Users = 300
	cfg.Ctx = ctx
	if _, err := Run(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on a canceled context = %v, want context.Canceled", err)
	}
}

func TestRunTrialTimeout(t *testing.T) {
	cfg := fastSweepConfig(1)
	cfg.Users = 300
	// A year of simulated load takes far longer than a test's wall time, so
	// the watchdog interrupts the trial before it can finish.
	cfg.Measure = 365 * 24 * time.Hour
	cfg.TrialTimeout = time.Nanosecond
	_, err := Run(cfg)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("Run err = %v, want *TimeoutError", err)
	}
	if !IsTrialFailure(err) {
		t.Error("IsTrialFailure(TimeoutError) = false")
	}
	if !strings.Contains(te.Error(), "wall-clock watchdog") {
		t.Errorf("Error() = %q, want it to name the watchdog", te.Error())
	}
}
