package rubbos

import (
	"math"
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/rng"
)

func TestTableHas24Interactions(t *testing.T) {
	if NumInteractions != 24 {
		t.Fatalf("NumInteractions = %d, want 24 (RUBBoS)", NumInteractions)
	}
	tbl := NewTable()
	if len(tbl.Items) != 24 {
		t.Fatalf("table has %d items, want 24", len(tbl.Items))
	}
	seen := map[string]bool{}
	for i, it := range tbl.Items {
		if it.Name == "" {
			t.Errorf("interaction %d has no name", i)
		}
		if seen[it.Name] {
			t.Errorf("duplicate interaction name %q", it.Name)
		}
		seen[it.Name] = true
		if it.ServletMS <= 0 || it.ApacheMS <= 0 {
			t.Errorf("%s has non-positive CPU demand", it.Name)
		}
		if it.Queries < 0 {
			t.Errorf("%s has negative query count", it.Name)
		}
	}
}

func TestByName(t *testing.T) {
	tbl := NewTable()
	it, err := tbl.byName("ViewStory")
	if err != nil || it.Name != "ViewStory" {
		t.Fatalf("ByName(ViewStory) = %v, %v", it, err)
	}
	if _, err := tbl.byName("NoSuch"); err == nil {
		t.Error("ByName of unknown interaction should error")
	}
}

func TestMatricesAreStochastic(t *testing.T) {
	for _, m := range []*Matrix{BrowseOnlyMix(), ReadWriteMix()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestBrowseOnlyNeverWrites(t *testing.T) {
	tbl := NewTable()
	m := BrowseOnlyMix()
	// No browse-reachable state may transition into a write interaction.
	pi := m.Stationary()
	for i, p := range pi {
		if p > 1e-9 && tbl.Items[i].Write {
			t.Errorf("browse-only mix reaches write interaction %s (p=%v)", tbl.Items[i].Name, p)
		}
	}
}

func TestReadWriteMixReachesWrites(t *testing.T) {
	tbl := NewTable()
	pi := ReadWriteMix().Stationary()
	writeMass := 0.0
	for i, p := range pi {
		if tbl.Items[i].Write {
			writeMass += p
		}
	}
	if writeMass < 0.05 || writeMass > 0.35 {
		t.Errorf("read/write mix write mass %v, want 5%%-35%%", writeMass)
	}
}

func TestStationarySumsToOne(t *testing.T) {
	for _, m := range []*Matrix{BrowseOnlyMix(), ReadWriteMix()} {
		pi := m.Stationary()
		sum := 0.0
		for _, p := range pi {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s stationary sums to %v", m.Name, sum)
		}
	}
}

func TestNextMatchesMatrixFrequencies(t *testing.T) {
	m := BrowseOnlyMix()
	r := rng.New(5)
	counts := make([]int, NumInteractions)
	n := 200000
	for i := 0; i < n; i++ {
		counts[m.Next(r, StoriesOfTheDay)]++
	}
	for j := 0; j < NumInteractions; j++ {
		want := m.P[StoriesOfTheDay][j]
		got := float64(counts[j]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("transition to %d frequency %v, want %v", j, got, want)
		}
	}
}

func TestAggregateBrowseMixTargets(t *testing.T) {
	tbl := NewTable()
	agg := tbl.Aggregate(BrowseOnlyMix().Stationary())
	// Calibration targets from DESIGN.md §5.
	if agg.ServletMS < 1.8 || agg.ServletMS > 3.0 {
		t.Errorf("mix servlet demand %.2f ms, want ~2.4", agg.ServletMS)
	}
	if agg.Queries < 1.8 || agg.Queries > 3.0 {
		t.Errorf("mix Req_ratio %.2f, want ~2.4", agg.Queries)
	}
	if agg.CJDBCMS < 0.7 || agg.CJDBCMS > 1.4 {
		t.Errorf("mix C-JDBC demand %.2f ms/request, want ~1.0", agg.CJDBCMS)
	}
	if agg.ApacheMS < 0.5 || agg.ApacheMS > 1.2 {
		t.Errorf("mix Apache demand %.2f ms, want ~0.8", agg.ApacheMS)
	}
}

func TestAggregateEmptyWeights(t *testing.T) {
	tbl := NewTable()
	agg := tbl.Aggregate(make([]float64, NumInteractions))
	if agg.ServletMS != 0 || agg.Queries != 0 {
		t.Errorf("zero weights gave %+v", agg)
	}
}

type fakeTarget struct {
	delay time.Duration
	calls int
}

func (f *fakeTarget) Do(p *des.Proc, it *Interaction, _ *Call) (bool, error) {
	if !p.Bind() {
		return false, nil
	}
	f.calls++
	p.Sleep(f.delay)
	return true, nil
}

func TestClosedLoopThroughputFollowsLittlesLaw(t *testing.T) {
	env := des.NewEnv()
	tgt := &fakeTarget{delay: 500 * time.Millisecond}
	cfg := ClientConfig{
		Users: 50, ThinkMean: 2 * time.Second,
		RampUp: 0, Matrix: BrowseOnlyMix(), Seed: 3,
	}
	var count int
	var rts time.Duration
	_, err := Start(env, cfg, NewTable(), tgt, func(it *Interaction, issued, rt time.Duration, err error) {
		count++
		rts += rt
	})
	if err != nil {
		t.Fatal(err)
	}
	horizon := 200 * time.Second
	env.Run(horizon)
	// X = N/(Z+R) = 50/2.5 = 20 req/s.
	x := float64(count) / horizon.Seconds()
	if x < 18 || x < 0 || x > 22 {
		t.Errorf("closed-loop throughput %.1f req/s, want ~20", x)
	}
	meanRT := rts / time.Duration(count)
	if meanRT != tgt.delay {
		t.Errorf("mean RT %v, want %v", meanRT, tgt.delay)
	}
	env.Shutdown()
}

func TestRampUpSpreadsStarts(t *testing.T) {
	env := des.NewEnv()
	tgt := &fakeTarget{delay: time.Millisecond}
	cfg := ClientConfig{
		Users: 10, ThinkMean: 0,
		RampUp: 10 * time.Second, Matrix: BrowseOnlyMix(), Seed: 4,
	}
	var firstIssues []time.Duration
	seen := map[int]bool{}
	i := 0
	_, err := Start(env, cfg, NewTable(), tgt, func(it *Interaction, issued, rt time.Duration, err error) {
		_ = it
		if !seen[i] { // record first few issues only
		}
		if len(firstIssues) < 10 {
			firstIssues = append(firstIssues, issued)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Run(5 * time.Second)
	// With a 10s ramp, only about half the users have started by t=5s.
	if tgt.calls < 100 || tgt.calls > 100000 {
		// sanity only; the key check is below
	}
	started := 0
	for _, is := range firstIssues {
		if is <= 5*time.Second {
			started++
		}
	}
	if started == 0 {
		t.Error("no user started during ramp-up")
	}
	env.Shutdown()
}

func TestStartValidation(t *testing.T) {
	env := des.NewEnv()
	tbl := NewTable()
	if _, err := Start(env, ClientConfig{Users: 0, Matrix: BrowseOnlyMix()}, tbl, &fakeTarget{}, nil); err == nil {
		t.Error("zero users should error")
	}
	if _, err := Start(env, ClientConfig{Users: 1}, tbl, &fakeTarget{}, nil); err == nil {
		t.Error("nil matrix should error")
	}
	if _, err := Start(env, ClientConfig{Users: 1, Matrix: BrowseOnlyMix(), ThinkMean: -1}, tbl, &fakeTarget{}, nil); err == nil {
		t.Error("negative think time should error")
	}
}

func TestUsersPerNode(t *testing.T) {
	w := &Workload{cfg: ClientConfig{Users: 6000}}
	if got := w.UsersPerNode(); got != 3000 {
		t.Errorf("UsersPerNode = %v, want 3000", got)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() int {
		env := des.NewEnv()
		tgt := &fakeTarget{delay: 100 * time.Millisecond}
		cfg := DefaultClientConfig(20)
		cfg.RampUp = time.Second
		count := 0
		if _, err := Start(env, cfg, NewTable(), tgt, func(it *Interaction, issued, rt time.Duration, err error) {
			count++
		}); err != nil {
			t.Fatal(err)
		}
		env.Run(60 * time.Second)
		env.Shutdown()
		return count
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("replay produced %d then %d completed requests", a, b)
	}
}

func TestAbandonment(t *testing.T) {
	run := func(patience time.Duration) (*Workload, int) {
		env := des.NewEnv()
		tgt := &fakeTarget{delay: 800 * time.Millisecond} // always "slow"
		cfg := ClientConfig{
			Users: 30, ThinkMean: time.Second,
			Matrix: BrowseOnlyMix(), Seed: 9, Patience: patience,
		}
		count := 0
		w, err := Start(env, cfg, NewTable(), tgt, func(it *Interaction, issued, rt time.Duration, err error) {
			count++
		})
		if err != nil {
			t.Fatal(err)
		}
		env.Run(120 * time.Second)
		env.Shutdown()
		return w, count
	}

	// Without patience, nothing is abandoned.
	w, _ := run(0)
	if w.Abandoned() != 0 {
		t.Errorf("abandoned %d without patience", w.Abandoned())
	}

	// With patience below the response time, every response frustrates.
	w, completed := run(500 * time.Millisecond)
	if w.Abandoned() == 0 {
		t.Fatal("no abandonment despite slow responses")
	}
	if w.Abandoned() != w.Completed() {
		t.Errorf("abandoned %d of %d completed; all responses exceed patience",
			w.Abandoned(), w.Completed())
	}
	// Longer frustrated thinks slow the session cycle: fewer completions
	// than the patient run in the same horizon.
	wPatient, completedPatient := run(10 * time.Second)
	if wPatient.Abandoned() != 0 {
		t.Errorf("abandoned %d with ample patience", wPatient.Abandoned())
	}
	if completed >= completedPatient {
		t.Errorf("frustrated users completed %d >= patient %d", completed, completedPatient)
	}
}
