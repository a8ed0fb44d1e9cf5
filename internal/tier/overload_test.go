package tier

// Tests for the overload-survival mechanics: deadline propagation and
// fail-fast at every tier, the adaptive admission controller, circuit
// breaker half-open probing, and deterministic backoff jitter.

import (
	"fmt"
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/netsim"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/trace"
)

// expired attaches a request context whose deadline is already behind the
// clock once the process has slept past it.
func expired(p *des.Proc) {
	p.SetData(&trace.Ctx{Deadline: time.Microsecond})
	p.Sleep(time.Millisecond)
}

func TestDeadlineFailFastEveryTier(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	a, tc := newApache(env, 10, netsim.FinConfig{})
	c, backends := newCJDBC(env, 1)
	var errs []error
	env.Go("req", func(p *des.Proc) {
		expired(p)
		errs = append(errs, mustDo(p, a, testInteraction()))
		errs = append(errs, tc.Serve(p, testInteraction()))
		errs = append(errs, c.Checkout(p))
		errs = append(errs, backends[0].Query(p, testInteraction()))
	})
	env.Run(time.Minute)
	if len(errs) != 4 {
		t.Fatalf("got %d results, want 4", len(errs))
	}
	for i, err := range errs {
		k, ok := ErrKind(err)
		if !ok || k != FailDeadline {
			t.Errorf("tier %d: error %v, want FailDeadline", i, err)
		}
		var s interface{ Shed() bool }
		if ok := func() bool { se, ok := err.(interface{ Shed() bool }); s = se; return ok }(); !ok || !s.Shed() {
			t.Errorf("tier %d: FailDeadline must classify as shed", i)
		}
	}
	if a.DeadlineSheds() != 1 || tc.DeadlineSheds() != 1 || c.DeadlineSheds() != 1 || backends[0].DeadlineSheds() != 1 {
		t.Errorf("deadline shed counters: apache %d tomcat %d cjdbc %d mysql %d, want 1 each",
			a.DeadlineSheds(), tc.DeadlineSheds(), c.DeadlineSheds(), backends[0].DeadlineSheds())
	}
	if a.Sheds() != 1 {
		t.Errorf("Apache.Sheds() = %d, want 1 (deadline fail-fasts included)", a.Sheds())
	}
}

// TestDeadlineEstimatorShedsBeforeQueueing drives one request through to
// warm the residence estimator, then offers a request whose budget is ahead
// of the clock but smaller than the estimate: it must be shed at the door,
// not queued.
func TestDeadlineEstimatorShedsBeforeQueueing(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	a, _ := newApache(env, 10, netsim.FinConfig{})
	var warmErr, tightErr error
	env.Go("req", func(p *des.Proc) {
		warmErr = mustDo(p, a, testInteraction()) // no deadline: always admitted
		est := a.est.get()
		if est <= 0 {
			t.Error("estimator not warmed by a served request")
		}
		p.SetData(&trace.Ctx{Deadline: p.Now() + est/2})
		tightErr = mustDo(p, a, testInteraction())
	})
	env.Run(time.Minute)
	if warmErr != nil {
		t.Fatalf("warm-up request failed: %v", warmErr)
	}
	if k, ok := ErrKind(tightErr); !ok || k != FailDeadline {
		t.Errorf("tight-budget request got %v, want FailDeadline", tightErr)
	}
}

func TestDeadlineGenerousBudgetServes(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	a, _ := newApache(env, 10, netsim.FinConfig{})
	var err error
	env.Go("req", func(p *des.Proc) {
		p.SetData(&trace.Ctx{Deadline: p.Now() + time.Minute})
		err = mustDo(p, a, testInteraction())
	})
	env.Run(time.Minute)
	if err != nil {
		t.Errorf("generous-budget request failed: %v", err)
	}
	if a.DeadlineSheds() != 0 {
		t.Errorf("deadline sheds %d, want 0", a.DeadlineSheds())
	}
}

// TestDeadlineShedNeitherRetriedNorBreaking pins the two resilience
// interactions of deadline propagation: a downstream deadline shed is final
// (retrying cannot make the budget reappear) and it must not trip the hop's
// circuit breaker (the peer is healthy; the request was out of budget).
func TestDeadlineShedNeitherRetriedNorBreaking(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	a, tc := newApache(env, 10, netsim.FinConfig{})
	cfg := &ResilienceConfig{
		Retries: 3,
		Breaker: BreakerConfig{Enabled: true, FailThreshold: 1, OpenFor: time.Second},
	}
	a.SetResilience(cfg, rng.New(7))
	// Warm only the Tomcat estimator, so Apache admits and Tomcat sheds.
	tc.est.observe(10 * time.Millisecond)
	var err error
	env.Go("req", func(p *des.Proc) {
		p.SetData(&trace.Ctx{Deadline: p.Now() + 5*time.Millisecond})
		err = mustDo(p, a, testInteraction())
	})
	env.Run(time.Minute)
	if k, ok := ErrKind(err); !ok || k != FailDeadline {
		t.Fatalf("request got %v, want FailDeadline from the Tomcat tier", err)
	}
	st := a.Resilience()
	if st.Retries != 0 {
		t.Errorf("deadline shed was retried %d times, want 0", st.Retries)
	}
	if st.BreakerOpens != 0 || a.Breakers()[0].State() != BreakerClosed {
		t.Errorf("deadline shed tripped the breaker (opens %d, state %v)",
			st.BreakerOpens, a.Breakers()[0].State())
	}
}

func newTestAdmission(q *int) *admission {
	return &admission{
		cfg:    DefaultAdmissionConfig().withDefaults(),
		r:      rng.NewStream(5, "admission"),
		queued: func() int { return *q },
	}
}

func TestAdmissionLevelGrowsWhileBacklogGrows(t *testing.T) {
	q := 0
	ad := newTestAdmission(&q)
	prev := ad.Level()
	for i := 1; i <= 5; i++ {
		ad.observeWait(100 * time.Millisecond) // standing wait over the 50ms target
		q = i * 10                             // backlog growing
		ad.control()
		if ad.Level() <= prev {
			t.Fatalf("tick %d: level %v did not grow from %v", i, ad.Level(), prev)
		}
		prev = ad.Level()
	}
}

func TestAdmissionLevelHoldsWhileBacklogDrains(t *testing.T) {
	q := 50
	ad := newTestAdmission(&q)
	ad.observeWait(100 * time.Millisecond)
	ad.control() // grow once
	level := ad.Level()
	if level <= 0 {
		t.Fatal("level did not grow")
	}
	// Still over target, but the backlog is shrinking: hold, don't grow.
	q = 30
	ad.observeWait(100 * time.Millisecond)
	ad.control()
	if ad.Level() != level {
		t.Errorf("level %v changed during drain, want held at %v", ad.Level(), level)
	}
}

func TestAdmissionLevelDecaysAndSnapsToZero(t *testing.T) {
	q := 10
	ad := newTestAdmission(&q)
	ad.observeWait(100 * time.Millisecond)
	ad.control()
	level := ad.Level()
	q = 0
	for i := 0; i < 50 && ad.Level() > 0; i++ {
		ad.observeWait(time.Millisecond) // comfortably under target
		ad.control()
		if ad.Level() >= level && ad.Level() != 0 {
			t.Fatalf("level %v did not decay from %v", ad.Level(), level)
		}
		level = ad.Level()
	}
	if ad.Level() != 0 {
		t.Errorf("level %v, want snapped to zero", ad.Level())
	}
}

func TestAdmissionWedgedPoolCountsAsOverloaded(t *testing.T) {
	// No request reached a worker at all (no waits observed), but the queue
	// is non-empty: a fully wedged pool must still grow the level.
	q := 5
	ad := newTestAdmission(&q)
	ad.control()
	if ad.Level() <= 0 {
		t.Error("wedged pool did not grow the drop level")
	}
}

func TestAdmissionLevelCappedAtMaxShed(t *testing.T) {
	q := 0
	ad := newTestAdmission(&q)
	for i := 0; i < 100; i++ {
		ad.observeWait(time.Second)
		q += 10
		ad.control()
	}
	if got := ad.Level(); got != ad.cfg.MaxShed {
		t.Errorf("level %v, want capped at MaxShed %v", got, ad.cfg.MaxShed)
	}
}

func TestAdmissionWritePriority(t *testing.T) {
	q := 0
	ad := newTestAdmission(&q)
	// At level 0.4 writes see max(0, 2p-1) = 0: never dropped.
	ad.level = 0.4
	for i := 0; i < 1000; i++ {
		if ad.drop(true) {
			t.Fatal("write dropped at level 0.4, want full write protection below 0.5")
		}
	}
	browse := 0
	for i := 0; i < 1000; i++ {
		if ad.drop(false) {
			browse++
		}
	}
	if browse < 300 || browse > 500 {
		t.Errorf("browse drops %d/1000 at level 0.4, want ~400", browse)
	}
	// At level 0.9 writes see 0.8: dropped, but still less often than browse.
	ad.level = 0.9
	writes := 0
	browse = 0
	for i := 0; i < 1000; i++ {
		if ad.drop(true) {
			writes++
		}
		if ad.drop(false) {
			browse++
		}
	}
	if writes == 0 || writes >= browse {
		t.Errorf("at level 0.9: write drops %d, browse drops %d, want 0 < writes < browse", writes, browse)
	}
}

// TestAdmissionShedsUnderOverloadEndToEnd wires the controller into Apache
// and drives sustained overload: two workers parked ~200ms per request
// against arrivals every 5ms. The controller must engage and shed.
func TestAdmissionShedsUnderOverloadEndToEnd(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	fin := netsim.FinConfig{BaseMean: 200 * time.Millisecond}
	a, _ := newApache(env, 2, fin)
	a.SetResilience(&ResilienceConfig{Admission: DefaultAdmissionConfig()}, rng.New(3))
	env.Go("load", func(p *des.Proc) {
		for i := 0; ; i++ {
			goServe(env, a, testInteraction(), nil)
			p.Sleep(5 * time.Millisecond)
		}
	})
	env.Run(20 * time.Second)
	st := a.Resilience()
	if st.AdmissionSheds == 0 {
		t.Fatal("sustained overload never engaged the admission controller")
	}
	if st.Shed < st.AdmissionSheds {
		t.Errorf("Shed %d < AdmissionSheds %d: adaptive drops must count in Shed", st.Shed, st.AdmissionSheds)
	}
	if a.Sheds() < st.AdmissionSheds {
		t.Errorf("Apache.Sheds() %d must include the %d admission drops", a.Sheds(), st.AdmissionSheds)
	}
}

// backlogApache is an Apache with one worker held by a test process for
// the first second, and the given protection.
func backlogApache(env *des.Env, cfg *ResilienceConfig) *Apache {
	a, _ := newApache(env, 1, netsim.FinConfig{})
	a.SetResilience(cfg, rng.New(3))
	env.Go("holder", func(p *des.Proc) {
		a.Workers.Acquire(p)
		p.Sleep(time.Second)
		a.Workers.Release()
	})
	return a
}

// An arrival at a full accept backlog is dropped before the server reads
// it: FailShed, counted in Shed, BacklogDrops and Sheds, and no CPU work.
func TestBacklogDropCostsNoCPU(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	a := backlogApache(env, &ResilienceConfig{Backlog: 2, DegradedMS: 0.05})
	env.At(time.Millisecond, func() {
		goServe(env, a, testInteraction(), nil)
		goServe(env, a, testInteraction(), nil)
	})
	var err error
	env.At(2*time.Millisecond, func() {
		env.Go("arrival", func(p *des.Proc) {
			if q := a.Workers.Queued(); q != 2 {
				t.Errorf("queued %d, want the backlog of 2", q)
			}
			cpu := a.Node.CPU()
			jobs, work := cpu.Stats().JobsDone, cpu.BusyIntegral()
			err = mustDo(p, a, testInteraction())
			if got := cpu.Stats().JobsDone; got != jobs {
				t.Errorf("backlog drop ran %d CPU jobs", got-jobs)
			}
			if got := cpu.BusyIntegral(); got != work {
				t.Errorf("backlog drop used %g core-seconds of CPU", got-work)
			}
		})
	})
	env.Run(time.Minute)
	if k, ok := ErrKind(err); !ok || k != FailShed {
		t.Fatalf("arrival at the backlog got %v, want FailShed", err)
	}
	if a.BacklogDrops() != 1 || a.Resilience().Shed != 1 || a.Sheds() != 1 {
		t.Errorf("BacklogDrops %d, Shed %d, Sheds %d, want 1 each",
			a.BacklogDrops(), a.Resilience().Shed, a.Sheds())
	}
	if err := a.Audit(true); err != nil {
		t.Error(err)
	}
}

// A request whose degraded response is still on the CPU holds a backlog
// slot: with one request queued (MaxQueue 1) and one being shed, the next
// arrival finds the backlog of 2 full and is dropped.
func TestBacklogCountsDegradedInProgress(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	a := backlogApache(env, &ResilienceConfig{Backlog: 2, MaxQueue: 1, DegradedMS: 10})
	env.At(time.Millisecond, func() { goServe(env, a, testInteraction(), nil) })
	var shed, dropped error
	env.At(2*time.Millisecond, func() {
		env.Go("shed", func(p *des.Proc) { shed = mustDo(p, a, testInteraction()) })
	})
	env.At(3*time.Millisecond, func() {
		env.Go("dropped", func(p *des.Proc) { dropped = mustDo(p, a, testInteraction()) })
	})
	env.Run(time.Minute)
	for _, err := range []error{shed, dropped} {
		if k, ok := ErrKind(err); !ok || k != FailShed {
			t.Errorf("got %v, want FailShed", err)
		}
	}
	if a.BacklogDrops() != 1 || a.Resilience().Shed != 2 {
		t.Errorf("BacklogDrops %d, Shed %d, want 1 and 2", a.BacklogDrops(), a.Resilience().Shed)
	}
	if err := a.Audit(true); err != nil {
		t.Error(err)
	}
}

// Backlog 0 is unbounded: 500 requests queue behind the held worker and
// every one is served.
func TestBacklogZeroNeverDrops(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	a := backlogApache(env, &ResilienceConfig{DegradedMS: 0.05})
	served := 0
	env.At(time.Millisecond, func() {
		for i := 0; i < 500; i++ {
			goServe(env, a, testInteraction(), func(p *des.Proc, err error) {
				if err != nil {
					t.Errorf("request failed: %v", err)
				}
				served++
			})
		}
	})
	env.Run(time.Minute)
	if served != 500 || a.BacklogDrops() != 0 || a.Sheds() != 0 {
		t.Errorf("served %d of 500, BacklogDrops %d, Sheds %d", served, a.BacklogDrops(), a.Sheds())
	}
}

func breakerEnv(t *testing.T) (*des.Env, *Breaker) {
	t.Helper()
	env := des.NewEnv()
	t.Cleanup(env.Shutdown)
	b := NewBreaker(env, BreakerConfig{
		Enabled: true, FailThreshold: 2, OpenFor: time.Second,
		HalfOpenProbes: 2, CloseAfter: 2,
	})
	return env, b
}

func TestBreakerTripsAndRejectsWhileOpen(t *testing.T) {
	_, b := breakerEnv(t)
	if !b.Allow() {
		t.Fatal("closed breaker must allow")
	}
	b.Record(false)
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after %d failures, want open", b.State(), 2)
	}
	if b.Opens() != 1 {
		t.Errorf("opens %d, want 1", b.Opens())
	}
	if b.Allow() {
		t.Error("open breaker allowed a call inside the cool-down")
	}
}

// TestBreakerHalfOpenBoundsConcurrentProbes trips the breaker, lets the
// cool-down elapse on the DES clock, then has five concurrent processes race
// Allow at the same instant: exactly HalfOpenProbes may pass.
func TestBreakerHalfOpenBoundsConcurrentProbes(t *testing.T) {
	env, b := breakerEnv(t)
	b.Record(false)
	b.Record(false)
	admitted := 0
	env.At(1100*time.Millisecond, func() {
		if b.State() != BreakerHalfOpen {
			t.Errorf("state %v after the open window, want half-open", b.State())
		}
	})
	for i := 0; i < 5; i++ {
		env.Go(fmt.Sprintf("probe-%d", i), func(p *des.Proc) {
			p.Sleep(1200 * time.Millisecond)
			if b.Allow() {
				admitted++
			}
		})
	}
	env.Run(2 * time.Second)
	if admitted != 2 {
		t.Fatalf("%d concurrent probes admitted while half-open, want HalfOpenProbes=2", admitted)
	}
	// Both probes succeed: CloseAfter=2 closes the breaker.
	b.Record(true)
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Errorf("state %v after %d probe successes, want closed", b.State(), 2)
	}
	if !b.Allow() {
		t.Error("closed breaker must allow")
	}
	b.Record(true)
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	env, b := breakerEnv(t)
	b.Record(false)
	b.Record(false)
	var allowed, allowedAfter bool
	env.At(1500*time.Millisecond, func() {
		allowed = b.Allow()
		b.Record(false) // the probe fails: straight back to open
		allowedAfter = b.Allow()
	})
	env.Run(2 * time.Second)
	if !allowed {
		t.Fatal("half-open breaker refused its probe")
	}
	if allowedAfter {
		t.Error("breaker allowed a call right after a failed probe")
	}
	if b.Opens() != 2 {
		t.Errorf("opens %d, want 2 (initial trip + failed probe)", b.Opens())
	}
}

// TestBackoffJitterDeterministicUnderParallel runs the same seeded backoff
// sequence from four parallel subtests: the jitter must be a pure function
// of the stream, never of scheduling (satellite for -parallel campaigns).
func TestBackoffJitterDeterministicUnderParallel(t *testing.T) {
	cfg := DefaultResilienceConfig()
	seq := func() []time.Duration {
		r := rng.NewStream(99, "jitter")
		out := make([]time.Duration, 8)
		for a := range out {
			out[a] = cfg.backoff(r, a)
		}
		return out
	}
	want := seq()
	for i := 0; i < 4; i++ {
		t.Run(fmt.Sprintf("replica-%d", i), func(t *testing.T) {
			t.Parallel()
			got := seq()
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("attempt %d: backoff %v, want %v", j, got[j], want[j])
				}
			}
		})
	}
}

func TestBackoffBoundsAndJitterRange(t *testing.T) {
	cfg := DefaultResilienceConfig()
	r := rng.NewStream(1, "jitter")
	for attempt := 0; attempt < 12; attempt++ {
		d := cfg.backoff(r, attempt)
		nominal := cfg.BackoffBase << uint(attempt)
		if nominal > cfg.BackoffMax {
			nominal = cfg.BackoffMax
		}
		lo := time.Duration(float64(nominal) * (1 - cfg.JitterFrac))
		hi := time.Duration(float64(nominal) * (1 + cfg.JitterFrac))
		if d < lo || d > hi {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d, lo, hi)
		}
	}
	none := ResilienceConfig{}
	if got := none.backoff(r, 3); got != 0 {
		t.Errorf("zero-base backoff %v, want 0", got)
	}
}
