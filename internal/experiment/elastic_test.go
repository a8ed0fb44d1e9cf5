package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

func TestUnitsOverIntegration(t *testing.T) {
	ds := []adaptive.ElasticDecision{
		{At: 10 * time.Second, Units: 80},
		{At: 30 * time.Second, Units: 40},
	}
	// 10s at 100, 20s at 80, 10s at 40 over [0, 40s).
	got := unitsOver(100, ds, 0, 40*time.Second)
	want := (10.0*100 + 20.0*80 + 10.0*40) / 40.0
	if got != want {
		t.Errorf("unitsOver = %v, want %v", got, want)
	}
	// Decisions before the window set the initial level.
	if got := unitsOver(100, ds, 30*time.Second, 40*time.Second); got != 40 {
		t.Errorf("unitsOver tail = %v, want 40", got)
	}
	if got := unitsAt(100, ds, 5*time.Second); got != 100 {
		t.Errorf("unitsAt(5s) = %d, want 100", got)
	}
	if got := unitsAt(100, ds, 30*time.Second); got != 40 {
		t.Errorf("unitsAt(30s) = %d, want 40", got)
	}
}

func TestUsersAtFor(t *testing.T) {
	if fn := UsersAtFor(trace.Poisson(100)); fn == nil || fn(0) <= 0 {
		t.Error("UsersAtFor(poisson) unusable")
	}
	sched := trace.Diurnal(30, 90, 8*time.Minute)
	fn := UsersAtFor(sched)
	if fn == nil {
		t.Fatal("UsersAtFor(schedule) = nil")
	}
	// The trough population must be well below the midday plateau's.
	if lo, hi := fn(time.Minute), fn(4*time.Minute); lo <= 0 || hi <= lo {
		t.Errorf("diurnal users trough %d, plateau %d", lo, hi)
	}
	mmpp := trace.MMPP(trace.MMPPState{Rate: 30, Mean: time.Minute},
		trace.MMPPState{Rate: 90, Mean: time.Minute})
	if fn := UsersAtFor(mmpp); fn == nil || fn(0) <= 0 {
		t.Error("UsersAtFor(mmpp) unusable")
	}
}

// TestElasticFingerprintPinned pins the journal fingerprint of
// `ntier elastic`'s default sweep (every flag at its default). The
// fingerprint names the sweep's journal file (State.Journal), so a moved
// value leaves the journals of earlier releases unread: their cells re-run
// instead of restoring.
func TestElasticFingerprintPinned(t *testing.T) {
	cfg := ElasticSweepConfig{
		Controller:       adaptive.ElasticConfig{Interval: 20 * time.Second, MaxStep: 16, Deadband: 2},
		Policies:         []adaptive.Policy{adaptive.PolicyStatic, adaptive.PolicyTopJob},
		Traces:           []ElasticTrace{{Name: "diurnal", Spec: trace.Diurnal(40, 120, 8*time.Minute)}},
		Window:           10 * time.Second,
		GoodputThreshold: time.Second,
	}
	cfg.applyDefaults()
	if got, want := cfg.Fingerprint(), "5c41d8c2e0a3b1be"; got != want {
		t.Errorf("fingerprint %s, want %s", got, want)
	}
}

// elasticBase is the small shared config for the elastic trials: the 1/2/1/2
// topology on a compressed two-minute day.
func elasticBase(t *testing.T) ElasticSweepConfig {
	t.Helper()
	return ElasticSweepConfig{
		Run: RunConfig{
			Testbed: testbed.Options{
				Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
				Soft:     testbed.SoftAlloc{WebThreads: 60, AppThreads: 4, AppConns: 4},
				Seed:     23,
			},
			RampUp:  10 * time.Second,
			Measure: 2 * time.Minute,
		},
		Controller: adaptive.ElasticConfig{
			Interval: 15 * time.Second,
			Cooldown: 30 * time.Second,
		},
		Policies: []adaptive.Policy{adaptive.PolicyTopJob},
		Traces: []ElasticTrace{{
			Name: "diurnal",
			Spec: trace.Diurnal(30, 90, 2*time.Minute),
		}},
	}
}

// obsFile is an obs snapshot with the name of the file it was written to.
type obsFile struct {
	*obs.TrialObs
	File string `json:"file"`
}

// elasticObsSnapshot runs elasticBase's TOP_JOB day with ObsDir set, once
// per test binary, and reads back the one snapshot it writes.
var elasticObsSnapshot = sharedTrial(func(t *testing.T) (obsFile, error) {
	dir, err := os.MkdirTemp("", "elastic-obs-")
	if err != nil {
		return obsFile{}, err
	}
	defer os.RemoveAll(dir)
	cfg := elasticBase(t)
	cfg.Run.ObsDir = dir
	if _, err := RunElastic(cfg, adaptive.PolicyTopJob, cfg.Traces[0]); err != nil {
		return obsFile{}, err
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return obsFile{}, err
	}
	snaps, err := obs.ReadDir(dir)
	if err != nil {
		return obsFile{}, err
	}
	if len(names) != 1 || len(snaps) != 1 {
		return obsFile{}, fmt.Errorf("obs dir holds %v, want one snapshot", names)
	}
	return obsFile{snaps[0], filepath.Base(names[0])}, nil
})

// TestRunElasticObsSnapshot: an elastic trial with ObsDir set writes one
// snapshot, labelled with the policy and the trace (so grid cells do not
// collide on one file) and with the trace's peak-rate closed equivalent as
// its workload.
func TestRunElasticObsSnapshot(t *testing.T) {
	snap := elasticObsSnapshot(t)
	cfg := elasticBase(t)
	users := int(rubbos.OpenEquivUsers(cfg.Traces[0].Spec.MaxRate()))
	if !strings.HasSuffix(snap.Soft, "-top_job-diurnal") {
		t.Errorf("snapshot Soft label %q does not end in -top_job-diurnal", snap.Soft)
	}
	if snap.Workload != users || snap.Summary.Workload != users {
		t.Errorf("snapshot workload %d (summary %d), want the peak-rate equivalent %d",
			snap.Workload, snap.Summary.Workload, users)
	}
	if snap.Hardware != "1/2/1/2" || snap.Seed != cfg.Run.Testbed.Seed {
		t.Errorf("snapshot labelled %s seed %d", snap.Hardware, snap.Seed)
	}
	if snap.File != snap.FileName() {
		t.Errorf("snapshot written as %s, want %s", snap.File, snap.FileName())
	}
	if snap.Summary.SLASeconds != 1 || snap.Summary.Goodput <= 0 {
		t.Errorf("summary SLA %gs goodput %g, want the 1s goodput threshold and positive goodput",
			snap.Summary.SLASeconds, snap.Summary.Goodput)
	}
}

func TestRunElasticDeterministicDecisionLog(t *testing.T) {
	cfg := elasticBase(t)
	run := func() *ElasticResult {
		r, err := RunElastic(cfg, adaptive.PolicyTopJob, cfg.Traces[0])
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.DecisionLog == "" {
		t.Fatal("expected a non-empty decision log")
	}
	if a.DecisionLog != b.DecisionLog {
		t.Errorf("same config produced different decision logs:\n--- first ---\n%s--- second ---\n%s",
			a.DecisionLog, b.DecisionLog)
	}
	if a.Goodput != b.Goodput || a.MeanUnits != b.MeanUnits {
		t.Errorf("re-run drifted: goodput %v vs %v, units %v vs %v",
			a.Goodput, b.Goodput, a.MeanUnits, b.MeanUnits)
	}
}

func TestElasticSweepJournalResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	cfg := elasticBase(t)
	cfg.Policies = []adaptive.Policy{adaptive.PolicyStatic, adaptive.PolicyTopJob}

	st, err := OpenState(dir, "elastic-test", false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Run.State = st
	first, err := ElasticSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: every cell must restore from the journal — no simulation —
	// and the decision logs must be byte-identical to the original run's.
	st, err = OpenState(dir, "elastic-test", true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg.Run.State = st
	restored, ran := 0, 0
	var mu sync.Mutex // workers call OnTrial concurrently
	cfg.Run.OnTrial = func(key string, wasRestored bool, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			t.Errorf("trial %s: %v", key, err)
		}
		if wasRestored {
			restored++
		} else {
			ran++
		}
	}
	second, err := ElasticSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 || restored != len(first.Results) {
		t.Errorf("resume ran %d trials and restored %d, want 0 and %d", ran, restored, len(first.Results))
	}
	for i, a := range first.Results {
		b := second.Results[i]
		if a == nil || b == nil {
			t.Fatalf("missing result at %d", i)
		}
		if a.DecisionLog != b.DecisionLog {
			t.Errorf("%s/%s: resumed decision log differs:\n--- original ---\n%s--- resumed ---\n%s",
				a.Policy, a.Trace, a.DecisionLog, b.DecisionLog)
		}
		if a.GoodputPerUnit != b.GoodputPerUnit {
			t.Errorf("%s/%s: resumed efficiency %v, want %v", a.Policy, a.Trace, b.GoodputPerUnit, a.GoodputPerUnit)
		}
	}
	tj := first.result(adaptive.PolicyTopJob, "diurnal")
	if tj == nil || len(tj.Decisions) == 0 {
		t.Error("TOP_JOB cell has no decisions")
	}
	if s := first.result(adaptive.PolicyStatic, "diurnal"); s == nil || len(s.Decisions) != 0 {
		t.Error("STATIC cell should have no decisions")
	}
}
