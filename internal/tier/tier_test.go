package tier

import (
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/hw"
	"github.com/softres/ntier/internal/netsim"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/trace"
)

func testInteraction() *rubbos.Interaction {
	return &rubbos.Interaction{
		Name: "test", ApacheMS: 0.5, ServletMS: 2.0, Queries: 2,
		CJDBCMS: 0.4, MySQLMS: 1.0, AllocTomcatMiB: 0.1, AllocCJDBCMiB: 0.05,
	}
}

// mustDo serves it through a, which must answer at once — a refusal over
// links of no latency, with no CPU to burn: Do would otherwise end p's
// step, which a caller that goes on cannot do.
func mustDo(p *des.Proc, a *Apache, it *rubbos.Interaction) error {
	done, err := a.Do(p, it, &rubbos.Call{})
	if !done {
		panic("mustDo: the request waits")
	}
	return err
}

// goServe starts a stepping process that serves it through a to
// completion, running Do again at each of its dispatches, and passes the
// outcome to done (if set).
func goServe(env *des.Env, a *Apache, it *rubbos.Interaction, done func(p *des.Proc, err error)) {
	goServeWith(env, a, it, nil, done)
}

// goServeWith is goServe for a request that carries data (see
// des.Proc.SetData), when it is not nil.
func goServeWith(env *des.Env, a *Apache, it *rubbos.Interaction, data any, done func(p *des.Proc, err error)) {
	var c rubbos.Call
	env.GoStep("req", func(p *des.Proc) {
		if data != nil {
			p.SetData(data)
		}
		if ok, err := a.Do(p, it, &c); ok && done != nil {
			done(p, err)
		}
	})
}

// goStage starts a stepping process that runs the stage function stage
// to completion n times in a row, each time on a fresh in-service record,
// and passes each outcome to done (if set).
func goStage(env *des.Env, n int, stage func(p *des.Proc, s *inService) (bool, error), done func(p *des.Proc, err error)) {
	var s inService
	env.GoStep("call", func(p *des.Proc) {
		for n > 0 {
			ok, err := stage(p, &s)
			if !ok {
				return
			}
			n--
			s = inService{}
			if done != nil {
				done(p, err)
			}
		}
	})
}

// mustStage runs the stage function stage on a fresh in-service record;
// it must finish at once (see mustDo).
func mustStage(p *des.Proc, stage func(p *des.Proc, s *inService) (bool, error)) error {
	done, err := stage(p, &inService{})
	if !done {
		panic("mustStage: the call waits")
	}
	return err
}

// Requests queued for a busy worker hold no coroutine, and neither does
// the request in service: five requests on one worker all complete, four
// of them after a suspended wait, and no coroutine is ever bound.
func TestApacheQueuedRequestsSuspend(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	a, _ := newApache(env, 1, false)
	var rts []time.Duration
	for i := 0; i < 5; i++ {
		goServe(env, a, testInteraction(), func(p *des.Proc, err error) {
			if err != nil {
				t.Errorf("request failed: %v", err)
			}
			rts = append(rts, p.Now())
		})
	}
	env.Run(time.Minute)
	if len(rts) != 5 {
		t.Fatalf("%d requests completed, want 5", len(rts))
	}
	for i := 1; i < len(rts); i++ {
		if rts[i] <= rts[i-1] {
			t.Errorf("completions %v not in FIFO order", rts)
		}
	}
	c := env.Counters()
	// Each request suspends for 12 CPU bursts: two at Apache, four at
	// Tomcat (two queries), a validation and a routing at C-JDBC per query
	// and one at MySQL per query.
	if c.Suspensions != 4+5*12 {
		t.Errorf("%d suspensions, want %d (every request but the first queued, and 12 CPU bursts each)", c.Suspensions, 4+5*12)
	}
	if c.Binds != 0 {
		t.Errorf("requests bound coroutines: %+v", c)
	}
	if st := a.Workers.Stats(); st.Waited != 4 || st.Grants != 5 {
		t.Errorf("worker pool waited %d / granted %d, want 4 / 5", st.Waited, st.Grants)
	}
}

// A queued request whose worker wait runs past the acquire timeout fails
// with FailTimeout and a worker-timeout span covering the wait.
func TestApacheQueuedRequestTimesOut(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	a, _ := newApache(env, 1, false)
	a.SetResilience(&ResilienceConfig{AcquireTimeout: 100 * time.Millisecond}, rng.New(1))
	holdWorker(env, a)
	var errs []error
	var spans []trace.Span
	// The first request waits past the timeout for the held worker; the
	// second queues 50ms before the holder lets it go.
	for _, at := range []time.Duration{time.Millisecond, 950 * time.Millisecond} {
		tr := &trace.Trace{}
		env.At(at, func() {
			goServeWith(env, a, testInteraction(), &trace.Ctx{Trace: tr}, func(p *des.Proc, err error) {
				errs = append(errs, err)
				spans = append(spans, tr.Spans[0])
			})
		})
	}
	env.Run(time.Minute)
	if len(errs) != 2 || errs[1] != nil {
		t.Fatalf("outcomes %v, want the timeout then the served request", errs)
	}
	if k, ok := ErrKind(errs[0]); !ok || k != FailTimeout {
		t.Errorf("queued request got %v, want FailTimeout", errs[0])
	}
	if s := spans[0]; s.Phase != "worker-timeout" || s.Dur() != 100*time.Millisecond {
		t.Errorf("timed-out request's first span %+v, want a 100ms worker-timeout", s)
	}
	if st := a.Resilience(); st.AcquireTimeouts != 1 || st.Failures != 1 {
		t.Errorf("acquire timeouts %d, failures %d; want 1 and 1", st.AcquireTimeouts, st.Failures)
	}
}

func TestServiceLog(t *testing.T) {
	var l ServiceLog
	l.Reset(10 * time.Second)
	l.Observe(5*time.Second, time.Second) // before window: dropped
	l.Observe(12*time.Second, 100*time.Millisecond)
	l.Observe(14*time.Second, 300*time.Millisecond)
	if l.Count() != 2 {
		t.Fatalf("count %d, want 2", l.Count())
	}
	if got := l.MeanRT(); got != 200*time.Millisecond {
		t.Errorf("mean RT %v, want 200ms", got)
	}
	if got := l.Throughput(20 * time.Second); got != 0.2 {
		t.Errorf("throughput %v, want 0.2", got)
	}
	// L = X*R = 0.2 * 0.2s = 0.04
	if got := l.Jobs(20 * time.Second); got < 0.0399 || got > 0.0401 {
		t.Errorf("jobs %v, want 0.04", got)
	}
}

func TestServiceLogEmpty(t *testing.T) {
	var l ServiceLog
	if l.MeanRT() != 0 || l.Throughput(time.Second) != 0 || l.Jobs(time.Second) != 0 {
		t.Error("empty log should return zeros")
	}
}

func TestMySQLQueryConsumesCPU(t *testing.T) {
	env := des.NewEnv()
	node := hw.NewNode(env, "mysql1", hw.PC3000())
	my := NewMySQL(env, node, netsim.Link{Latency: time.Millisecond}, rng.New(1))
	var rt time.Duration
	it := testInteraction()
	goStage(env, 1, func(p *des.Proc, s *inService) (bool, error) { return my.query(p, it, s) },
		func(p *des.Proc, _ error) { rt = p.Now() })
	env.Run(time.Second)
	// 1ms demand (CV 0) + 2 x 1ms hops = 3ms.
	if rt != 3*time.Millisecond {
		t.Errorf("query RT %v, want 3ms", rt)
	}
	if my.Log().Count() != 1 {
		t.Errorf("log count %d, want 1", my.Log().Count())
	}
	env.Shutdown()
}

func newCJDBC(env *des.Env, nBackends int) (*CJDBC, []*MySQL) {
	var backends []*MySQL
	for i := 0; i < nBackends; i++ {
		node := hw.NewNode(env, "mysql", hw.PC3000())
		backends = append(backends, NewMySQL(env, node, netsim.Link{}, rng.New(uint64(i))))
	}
	node := hw.NewNode(env, "cjdbc1", hw.PC3000())
	cfg := DefaultCJDBCConfig()
	return NewCJDBC(env, node, cfg, backends, netsim.Link{}, rng.New(9)), backends
}

func TestCJDBCRoundRobin(t *testing.T) {
	env := des.NewEnv()
	c, backends := newCJDBC(env, 2)
	it := testInteraction()
	goStage(env, 6, func(p *des.Proc, s *inService) (bool, error) { return c.query(p, it, s) }, nil)
	env.Run(time.Minute)
	a := backends[0].Log().Count()
	b := backends[1].Log().Count()
	if a != 3 || b != 3 {
		t.Errorf("backend query counts %d/%d, want 3/3", a, b)
	}
	env.Shutdown()
}

func TestCJDBCCheckoutTracksBusyThreads(t *testing.T) {
	env := des.NewEnv()
	c, _ := newCJDBC(env, 1)
	during := -1
	it := testInteraction()
	goStage(env, 2, func(p *des.Proc, s *inService) (bool, error) {
		if during < 0 {
			return c.checkout(p, s)
		}
		return c.query(p, it, s)
	}, func(p *des.Proc, _ error) {
		if during < 0 {
			during = c.Busy()
			return
		}
		c.Release()
	})
	env.Run(time.Minute)
	if during != 1 {
		t.Errorf("busy during checkout %d, want 1", during)
	}
	if c.Busy() != 0 {
		t.Errorf("busy after release %d, want 0", c.Busy())
	}
	env.Shutdown()
}

func TestCJDBCReleaseWithoutCheckoutPanics(t *testing.T) {
	env := des.NewEnv()
	c, _ := newCJDBC(env, 1)
	defer func() {
		if recover() == nil {
			t.Error("Release without Checkout did not panic")
		}
	}()
	c.Release()
}

func TestOverheadFactor(t *testing.T) {
	cfg := CJDBCConfig{CtxSwitchCoeff: 0.002, ThrashCoeff: 0.005}
	if f := cfg.overheadFactor(1); f != 1 {
		t.Errorf("factor at 1 = %v, want 1", f)
	}
	if f := cfg.overheadFactor(11); f != 1.02 {
		t.Errorf("factor at 11 = %v, want 1.02 (linear only)", f)
	}
	f20 := cfg.overheadFactor(20)
	f24 := cfg.overheadFactor(24)
	if f24 <= f20 {
		t.Errorf("thrash term missing: f(24)=%v <= f(20)=%v", f24, f20)
	}
	want := 1 + 0.002*23 + 0.005*16
	if diff := f24 - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("f(24) = %v, want %v", f24, want)
	}
	if f := cfg.overheadFactor(1000); f != 1.35 {
		t.Errorf("factor at 1000 = %v, want cap 1.35", f)
	}
}

func TestCJDBCJVMSlotsIncludeUpstreamConns(t *testing.T) {
	env := des.NewEnv()
	c, _ := newCJDBC(env, 1)
	c.SetUpstreamConns(200)
	small := c.JVM.PauseEstimate()
	c.SetUpstreamConns(800)
	large := c.JVM.PauseEstimate()
	if large <= small {
		t.Errorf("GC pause should grow with upstream conns: %v vs %v", small, large)
	}
}

func newTomcat(env *des.Env, threads, conns int) (*Tomcat, *CJDBC) {
	c, _ := newCJDBC(env, 1)
	node := hw.NewNode(env, "tomcat1", hw.PC3000())
	cfg := DefaultTomcatConfig(threads, conns)
	tc := NewTomcat(env, node, cfg, c, netsim.Link{}, rng.New(4))
	return tc, c
}

// tomcatServe is the stage function of a servlet request of
// testInteraction at tc.
func tomcatServe(tc *Tomcat) func(p *des.Proc, s *inService) (bool, error) {
	it := testInteraction()
	return func(p *des.Proc, s *inService) (bool, error) { return tc.serve(p, it, s) }
}

func TestTomcatServesRequest(t *testing.T) {
	env := des.NewEnv()
	tc, c := newTomcat(env, 4, 2)
	done := false
	goStage(env, 1, tomcatServe(tc), func(*des.Proc, error) { done = true })
	env.Run(time.Minute)
	if !done {
		t.Fatal("request did not complete")
	}
	if tc.Log().Count() != 1 {
		t.Errorf("tomcat log count %d", tc.Log().Count())
	}
	// 2 queries issued through C-JDBC.
	if c.Log().Count() != 2 {
		t.Errorf("cjdbc log count %d, want 2", c.Log().Count())
	}
	if tc.Threads.InUse() != 0 || tc.Conns.InUse() != 0 {
		t.Error("pools not released")
	}
	env.Shutdown()
}

func TestTomcatThreadPoolBounds(t *testing.T) {
	env := des.NewEnv()
	tc, _ := newTomcat(env, 2, 2)
	maxInUse := 0
	for i := 0; i < 8; i++ {
		goStage(env, 1, tomcatServe(tc), func(*des.Proc, error) {
			if tc.Threads.InUse() > maxInUse {
				maxInUse = tc.Threads.InUse()
			}
		})
	}
	env.Run(time.Minute)
	if maxInUse > 2 {
		t.Errorf("threads in use reached %d, capacity 2", maxInUse)
	}
	if got := tc.Log().Count(); got != 8 {
		t.Errorf("served %d, want 8", got)
	}
	env.Shutdown()
}

func TestTomcatConnHeldOnlyDuringQuery(t *testing.T) {
	env := des.NewEnv()
	tc, _ := newTomcat(env, 4, 4)
	st0 := tc.Conns.Stats()
	goStage(env, 1, tomcatServe(tc), nil)
	env.Run(time.Minute)
	st := tc.Conns.Stats()
	if st.Grants-st0.Grants != 2 {
		t.Errorf("conn grants %d, want 2 (one per query)", st.Grants-st0.Grants)
	}
	env.Shutdown()
}

// Two requests on one servlet thread: the second waits for the thread
// until the first has streamed its response out.
func TestTomcatResponseTransferHoldsThread(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	tc, _ := newTomcat(env, 1, 1)
	trs := []*trace.Trace{{}, {}}
	for _, tr := range trs {
		serve, s := tomcatServe(tc), &inService{}
		env.GoStep("call", func(p *des.Proc) {
			p.SetData(&trace.Ctx{Trace: tr})
			serve(p, s)
		})
	}
	env.Run(time.Minute)
	span := func(tr *trace.Trace, phase string) trace.Span {
		for _, s := range tr.Spans {
			if s.Phase == phase {
				return s
			}
		}
		t.Fatalf("no %s span in %+v", phase, tr.Spans)
		return trace.Span{}
	}
	transfer := span(trs[0], "response-transfer")
	if transfer.Dur() <= 0 {
		t.Fatalf("response transfer %+v takes no time", transfer)
	}
	if wait := span(trs[1], "thread-wait"); wait.End < transfer.End {
		t.Errorf("second request got the thread at %v, inside the first's transfer %+v", wait.End, transfer)
	}
}

// newApache is an Apache with the given worker pool in front of one
// Tomcat, its lingering close armed by finWait.
func newApache(env *des.Env, workers int, finWait bool) (*Apache, *Tomcat) {
	tc, _ := newTomcat(env, 50, 50)
	node := hw.NewNode(env, "apache1", hw.PC3000())
	cfg := ApacheConfig{Workers: workers, FinWait: finWait}
	a := NewApache(env, node, cfg, []*Tomcat{tc}, netsim.Link{}, rng.New(5))
	return a, tc
}

func TestApacheServesEndToEnd(t *testing.T) {
	env := des.NewEnv()
	a, tc := newApache(env, 10, false)
	done := 0
	for i := 0; i < 5; i++ {
		goServe(env, a, testInteraction(), func(*des.Proc, error) { done++ })
	}
	env.Run(time.Minute)
	if done != 5 {
		t.Fatalf("completed %d, want 5", done)
	}
	if tc.Log().Count() != 5 {
		t.Errorf("tomcat saw %d requests", tc.Log().Count())
	}
	if a.Workers.InUse() != 0 {
		t.Error("workers not released")
	}
	env.Shutdown()
}

// finWaitRun serves ten concurrent requests at a client load far past the
// FIN model's knee, where most closes wait the slow tail, and returns the
// latest completion and the number of workers parked in the close at
// 100ms.
func finWaitRun(finWait bool) (last time.Duration, parked int) {
	env := des.NewEnv()
	defer env.Shutdown()
	a, _ := newApache(env, 10, finWait)
	a.SetFinLoad(1e9)
	for i := 0; i < 10; i++ {
		goServe(env, a, testInteraction(), func(p *des.Proc, _ error) { last = max(last, p.Now()) })
	}
	env.At(100*time.Millisecond, func() { parked = a.FinWaiting() })
	env.Run(time.Minute)
	return last, parked
}

func TestApacheFinWaitParksWorker(t *testing.T) {
	last, parked := finWaitRun(true)
	if parked == 0 {
		t.Error("no worker parked in the lingering close")
	}
	// The slow tail is 300ms to 1.2s.
	if last < 300*time.Millisecond || last > 1300*time.Millisecond {
		t.Errorf("last completion at %v, want a slow-tail FIN wait of 300ms to 1.2s in it", last)
	}
}

// Without the FIN wait a worker closes at once, whatever the client load.
func TestApacheWithoutFinWait(t *testing.T) {
	last, parked := finWaitRun(false)
	if parked != 0 || last > 100*time.Millisecond {
		t.Errorf("%d workers parked, last completion at %v; want none parked and all done in 100ms", parked, last)
	}
}

func TestApacheConnectingCounter(t *testing.T) {
	env := des.NewEnv()
	a, tc := newApache(env, 10, false)
	_ = tc
	var during int
	env.Go("watch", func(p *des.Proc) {
		p.Sleep(500 * time.Microsecond)
		during = a.Connecting()
	})
	goServe(env, a, testInteraction(), nil)
	env.Run(time.Minute)
	if during != 1 {
		t.Errorf("connecting counter %d mid-request, want 1", during)
	}
	if a.Connecting() != 0 {
		t.Errorf("connecting counter %d after, want 0", a.Connecting())
	}
	env.Shutdown()
}

func TestApacheTimeline(t *testing.T) {
	env := des.NewEnv()
	a, _ := newApache(env, 10, false)
	a.EnableTimeline(0, time.Second)
	for i := 0; i < 3; i++ {
		goServe(env, a, testInteraction(), nil)
	}
	env.Run(time.Minute)
	processed, ptTotal, ptConn := a.Timeline()
	if processed.Count(0) != 3 {
		t.Errorf("processed in window 0 = %d, want 3", processed.Count(0))
	}
	if ptTotal.Mean(0) <= 0 {
		t.Error("ptTotal not recorded")
	}
	if ptConn.Mean(0) <= 0 {
		t.Error("ptConnecting not recorded")
	}
	if ptConn.Mean(0) > ptTotal.Mean(0) {
		t.Errorf("connecting time %v exceeds total busy %v", ptConn.Mean(0), ptTotal.Mean(0))
	}
	env.Shutdown()
}

func TestApacheRoundRobinAcrossTomcats(t *testing.T) {
	env := des.NewEnv()
	c, _ := newCJDBC(env, 1)
	var tcs []*Tomcat
	for i := 0; i < 2; i++ {
		node := hw.NewNode(env, "tomcat", hw.PC3000())
		tcs = append(tcs, NewTomcat(env, node, DefaultTomcatConfig(10, 10), c, netsim.Link{}, rng.New(uint64(i))))
	}
	node := hw.NewNode(env, "apache1", hw.PC3000())
	a := NewApache(env, node, ApacheConfig{Workers: 10}, tcs, netsim.Link{}, rng.New(6))
	for i := 0; i < 6; i++ {
		goServe(env, a, testInteraction(), nil)
	}
	env.Run(time.Minute)
	if tcs[0].Log().Count() != 3 || tcs[1].Log().Count() != 3 {
		t.Errorf("tomcat loads %d/%d, want 3/3", tcs[0].Log().Count(), tcs[1].Log().Count())
	}
	env.Shutdown()
}
