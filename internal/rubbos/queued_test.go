package rubbos

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/resource"
	"github.com/softres/ntier/internal/trace"
)

// poolTarget is a front door of a few workers: a network hop, a worker
// acquire with a timeout, then service on the worker. With step set it
// runs the way a real front door does, in steps: it rests through the hop
// and the service. Without, it parks through them on a coroutine — the
// blocking reference the re-entrant path must reproduce. Both wait for a
// worker suspended.
type poolTarget struct {
	workers *resource.Pool
	step    bool
}

// poolTarget's Call.Stage values.
const (
	poolSent    = iota + 1 // the hop is behind the request
	poolQueued             // queued suspended for a worker
	poolServed             // the service is behind the request
	poolRefused            // the timeout's error crossed back
)

func (t *poolTarget) Do(p *des.Proc, it *Interaction, c *Call) (bool, error) {
	if !t.step && !p.Bind() {
		return false, nil
	}
	// wait takes the request through d: parked on the coroutine, or resting
	// through it to the next stage.
	wait := func(d time.Duration, next uint8) bool {
		if !t.step {
			p.Sleep(d)
			return true
		}
		c.Stage = next
		p.Rest(d)
		return false
	}
	var ok bool
	switch c.Stage {
	case 0:
		if !wait(time.Millisecond, poolSent) {
			return false, nil
		}
		fallthrough
	case poolSent:
		if !t.workers.AcquireOrSuspend(p, 150*time.Millisecond) {
			c.Stage = poolQueued
			return false, nil
		}
		ok = true
	case poolQueued:
		ok, _ = t.workers.Resolve(p)
	case poolServed:
		t.workers.Release()
		*c = Call{}
		return true, nil
	case poolRefused:
		*c = Call{}
		return true, errors.New("pool: worker timeout")
	}
	if !ok {
		if !wait(time.Millisecond, poolRefused) {
			return false, nil
		}
		*c = Call{}
		return true, errors.New("pool: worker timeout")
	}
	if c, _ := p.Data().(interface{ Sampled() *trace.Trace }); c != nil && c.Sampled() != nil {
		c.Sampled().Add("web1", "served", p.Now(), p.Now())
	}
	if !wait(time.Duration(20+len(it.Name))*time.Millisecond, poolServed) {
		return false, nil
	}
	t.workers.Release()
	*c = Call{}
	return true, nil
}

// Sessions and open requests that wait in steps — resting through their
// hops and service, suspended for a worker — issue, finish, trace and time
// out exactly as they do when they park through them on coroutines.
func TestQueuedRequestsMatchParkedOnes(t *testing.T) {
	run := func(open, step bool) string {
		env := des.NewEnv()
		defer env.Shutdown()
		target := &poolTarget{workers: resource.NewPool(env, "workers", 3), step: step}
		tracer := trace.NewTracer(5, 1000)
		var log []string
		collect := func(it *Interaction, issued, rt time.Duration, err error) {
			log = append(log, fmt.Sprintf("%v %s %v %v", issued, it.Name, rt, err))
		}
		var w *Workload
		var err error
		if open {
			w, err = StartOpen(env, OpenConfig{Arrivals: trace.Poisson(120), Matrix: BrowseOnlyMix(), Seed: 4, Tracer: tracer}, NewTable(), target, collect)
		} else {
			cfg := DefaultClientConfig(400)
			cfg.RampUp = time.Second
			cfg.ThinkMean = 2 * time.Second
			cfg.Tracer = tracer
			w, err = Start(env, cfg, NewTable(), target, collect)
		}
		if err != nil {
			t.Fatal(err)
		}
		n := env.Run(20 * time.Second)
		if c := env.Counters(); c.Suspensions == 0 || step == (c.Binds > 0) {
			t.Errorf("open=%v step=%v: %d suspensions, %d binds", open, step, c.Suspensions, c.Binds)
		}
		spans := 0
		for _, tr := range tracer.Traces() {
			spans += len(tr.Spans)
		}
		return fmt.Sprintf("events=%d issued=%d completed=%d failed=%d inflight=%d spans=%d pool=%+v\n%v",
			n, w.Issued(), w.Completed(), w.Failed(), w.InFlight(), spans, target.workers.Stats(), log)
	}
	for _, open := range []bool{false, true} {
		parked, stepped := run(open, false), run(open, true)
		if parked != stepped {
			t.Errorf("open=%v: stepping run\n  %.600s\nparked run\n  %.600s", open, stepped, parked)
		}
		if !strings.Contains(parked, "pool: worker timeout") || !strings.Contains(parked, "<nil>") {
			t.Errorf("open=%v: the run misses the timeout or the served path", open)
		}
	}
}

// The queued-phase state fits the session's padding: a session stays in
// the 64-byte size class, on 32-bit targets too.
func TestSessionIs64Bytes(t *testing.T) {
	if n := unsafe.Sizeof(session{}); n > 64 {
		t.Errorf("unsafe.Sizeof(session{}) = %d, want at most 64", n)
	}
}

// overlapTarget serves each request for delay, resting through it in a
// step, as a trial's requests do, so requests overlap; the step at the
// rest's wake finishes the request. It allocates nothing.
type overlapTarget struct{ delay time.Duration }

func (s *overlapTarget) Do(p *des.Proc, _ *Interaction, c *Call) (bool, error) {
	if c.Stage == 0 {
		c.Stage = 1
		p.Rest(s.delay)
		return false, nil
	}
	return true, nil
}

// Once warm, an open arrival allocates nothing: its request record and its
// des.Proc are reused from finished requests, and the record's process
// body is bound once. The window after warm-up has about 40 requests in
// flight at once.
func TestOpenArrivalAllocations(t *testing.T) {
	const rate, window = 2000, 5 * time.Second
	env := des.NewEnv()
	defer env.Shutdown()
	cfg := OpenConfig{Arrivals: trace.Poisson(rate), Matrix: BrowseOnlyMix(), Seed: 1, Deadline: time.Second}
	w, err := StartOpen(env, cfg, NewTable(), &overlapTarget{delay: 20 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals uint64
	// AllocsPerRun runs the window once unmeasured first: the warm-up.
	allocs := testing.AllocsPerRun(1, func() {
		before := w.Issued()
		env.Run(env.Now() + window)
		arrivals = w.Issued() - before
	})
	per := allocs / float64(arrivals)
	t.Logf("%.4f allocations per arrival over %d arrivals", per, arrivals)
	if per > 0.01 {
		t.Errorf("%.4f allocations per arrival, want at most 0.01", per)
	}
	if w.Completed() == 0 || w.InFlight() == 0 {
		t.Errorf("completed %d, in flight %d: want requests finishing and overlapping", w.Completed(), w.InFlight())
	}
}

// dirtyTarget answers every request at once, in its first step, checking
// that its record arrives clean and leaving it dirty for the next arrival
// that reuses it.
type dirtyTarget struct {
	t       *testing.T
	records map[*trace.Ctx]bool
}

func (d *dirtyTarget) Do(p *des.Proc, it *Interaction, c *Call) (bool, error) {
	ctx := p.Data().(*trace.Ctx)
	if *c != (Call{}) || *ctx != (trace.Ctx{Write: it.Write}) {
		d.t.Errorf("request at %v started with call %+v, context %+v", p.Now(), *c, *ctx)
	}
	d.records[ctx] = true
	*c = Call{Stage: 3, Reply: 2, Server: 1, Rec: 4}
	*ctx = trace.Ctx{Deadline: time.Hour, Write: !it.Write}
	return true, nil
}

// A finished request's record is reused by the next arrival, fully reset:
// its context (deadline, class) and the target's Call.
func TestReusedRequestStartsClean(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	target := &dirtyTarget{t: t, records: map[*trace.Ctx]bool{}}
	w, err := StartOpen(env, OpenConfig{Arrivals: trace.Poisson(100), Matrix: ReadWriteMix(), Seed: 1}, NewTable(), target, nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Run(2 * time.Second)
	if w.Completed() < 100 || len(target.records) != 1 {
		t.Errorf("%d requests completed on %d records, want at least 100 on one", w.Completed(), len(target.records))
	}
}

// BenchmarkOpenArrivals drives Poisson arrivals at 1000 req/s into
// overlapTarget, one simulated millisecond (about one arrival) per op, so
// allocs/op reads as allocations per arrival.
func BenchmarkOpenArrivals(b *testing.B) {
	env := des.NewEnv()
	defer env.Shutdown()
	cfg := OpenConfig{Arrivals: trace.Poisson(1000), Matrix: BrowseOnlyMix(), Seed: 1, Deadline: time.Second}
	w, err := StartOpen(env, cfg, NewTable(), &overlapTarget{delay: 20 * time.Millisecond}, nil)
	if err != nil {
		b.Fatal(err)
	}
	env.Run(time.Second)
	before := w.Issued()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Run(env.Now() + time.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(w.Issued()-before), "ns/arrival")
}
