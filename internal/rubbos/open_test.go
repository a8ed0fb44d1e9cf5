package rubbos

import (
	"errors"
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/trace"
)

// stubTarget serves every interaction with a fixed delay and a scripted
// error, recording the deadline context each request carried.
type stubTarget struct {
	delay     time.Duration
	err       error
	served    int
	deadlines []time.Duration
}

func (s *stubTarget) Do(p *des.Proc, it *Interaction, _ *Call) (bool, error) {
	if s.delay > 0 && !p.Bind() {
		return false, nil
	}
	s.served++
	if c, ok := p.Data().(*trace.Ctx); ok && c != nil {
		s.deadlines = append(s.deadlines, c.Deadline)
	} else {
		s.deadlines = append(s.deadlines, -1)
	}
	if s.delay > 0 {
		p.Sleep(s.delay)
	}
	return true, s.err
}

// shedErr satisfies the structural Shed() contract the tier package's
// rejections implement.
type shedErr struct{ shed bool }

func (e *shedErr) Error() string { return "stub: rejected" }
func (e *shedErr) Shed() bool    { return e.shed }

func openConfig(rate float64) OpenConfig {
	return OpenConfig{
		Arrivals: trace.Poisson(rate),
		Matrix:   ReadWriteMix(),
		Seed:     11,
	}
}

func TestStartOpenValidates(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	table := NewTable()
	cases := []OpenConfig{
		{Matrix: ReadWriteMix()},                             // no arrivals
		{Arrivals: trace.Poisson(0), Matrix: ReadWriteMix()}, // no positive rate
		{Arrivals: trace.Poisson(10)},                        // no matrix
		{Arrivals: trace.Poisson(10), Matrix: ReadWriteMix(), Deadline: -time.Second},
	}
	for i, cfg := range cases {
		if _, err := StartOpen(env, cfg, table, &stubTarget{}, nil); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestStartOpenIssuesAtConfiguredRate(t *testing.T) {
	env := des.NewEnv()
	target := &stubTarget{}
	w, err := StartOpen(env, openConfig(200), NewTable(), target, nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Run(10 * time.Second)
	if w.Issued() < 1700 || w.Issued() > 2300 {
		t.Errorf("issued %d in 10s at 200/s, want ~2000", w.Issued())
	}
	if w.Completed() != w.Issued() {
		t.Errorf("completed %d != issued %d for an instant target", w.Completed(), w.Issued())
	}
	if w.Shed() != 0 || w.Failed() != 0 || w.Late() != 0 {
		t.Errorf("clean run recorded shed=%d failed=%d late=%d", w.Shed(), w.Failed(), w.Late())
	}
	env.Shutdown()
}

func TestStartOpenDeterministic(t *testing.T) {
	run := func() uint64 {
		env := des.NewEnv()
		defer env.Shutdown()
		w, err := StartOpen(env, openConfig(150), NewTable(), &stubTarget{delay: 5 * time.Millisecond}, nil)
		if err != nil {
			t.Fatal(err)
		}
		env.Run(5 * time.Second)
		return w.Issued()<<32 | w.Completed()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical configs diverged: %x vs %x", a, b)
	}
}

func TestStartOpenClassifiesSheds(t *testing.T) {
	env := des.NewEnv()
	target := &stubTarget{err: &shedErr{shed: true}}
	w, err := StartOpen(env, openConfig(100), NewTable(), target, nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Run(5 * time.Second)
	if w.Shed() == 0 || w.Shed() != w.Issued() {
		t.Errorf("shed %d, issued %d: every response was a shed rejection", w.Shed(), w.Issued())
	}
	if w.Failed() != 0 || w.Completed() != 0 {
		t.Errorf("sheds misclassified: failed=%d completed=%d", w.Failed(), w.Completed())
	}
	env.Shutdown()
}

func TestStartOpenClassifiesFailures(t *testing.T) {
	env := des.NewEnv()
	// A Shed()=false error and a plain error must both count as failed.
	for _, e := range []error{&shedErr{shed: false}, errors.New("boom")} {
		target := &stubTarget{err: e}
		w, err := StartOpen(env, openConfig(50), NewTable(), target, nil)
		if err != nil {
			t.Fatal(err)
		}
		env.Run(2 * time.Second)
		if w.Failed() != w.Issued() || w.Shed() != 0 {
			t.Errorf("%v: failed=%d shed=%d issued=%d", e, w.Failed(), w.Shed(), w.Issued())
		}
	}
	env.Shutdown()
}

func TestStartOpenStampsAndCountsDeadlines(t *testing.T) {
	env := des.NewEnv()
	cfg := openConfig(100)
	cfg.Deadline = 20 * time.Millisecond
	target := &stubTarget{delay: 50 * time.Millisecond} // always past the budget
	w, err := StartOpen(env, cfg, NewTable(), target, nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Run(5 * time.Second)
	if w.Completed() == 0 {
		t.Fatal("nothing completed")
	}
	if w.Late() != w.Completed() {
		t.Errorf("late %d, want every completion (%d) past a 20ms budget", w.Late(), w.Completed())
	}
	for i, dl := range target.deadlines {
		if dl <= 0 {
			t.Fatalf("request %d carried deadline %v, want positive absolute time", i, dl)
		}
	}
	env.Shutdown()
}

func TestStartOpenCollectorSeesErrors(t *testing.T) {
	env := des.NewEnv()
	var calls, errs int
	target := &stubTarget{err: &shedErr{shed: true}}
	collect := func(it *Interaction, issued, rt time.Duration, err error) {
		calls++
		if err != nil {
			errs++
		}
	}
	w, err := StartOpen(env, openConfig(80), NewTable(), target, collect)
	if err != nil {
		t.Fatal(err)
	}
	env.Run(2 * time.Second)
	if calls == 0 || uint64(calls) != w.Issued() {
		t.Errorf("collector saw %d calls, issued %d", calls, w.Issued())
	}
	if errs != calls {
		t.Errorf("collector saw %d errors of %d calls, want all", errs, calls)
	}
	env.Shutdown()
}

func TestOpenEquivalentPopulation(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	w, err := StartOpen(env, openConfig(100), NewTable(), &stubTarget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 100/s x 7s think-time equivalence = 700 users over 2 nodes.
	if got := w.UsersPerNode(); got != 350 {
		t.Errorf("UsersPerNode %v, want 350", got)
	}
	if got := OpenEquivUsers(100); got != 700 {
		t.Errorf("OpenEquivUsers(100) = %v, want 700", got)
	}
}
