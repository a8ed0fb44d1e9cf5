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
// acquire with a timeout, then service on the worker. With suspend set it
// queues the way a real front door does, suspended; without, it parks —
// the blocking reference the re-entrant path must reproduce.
type poolTarget struct {
	workers *resource.Pool
	suspend bool
}

// poolQueued is poolTarget's Call.Stage for a request queued suspended.
const poolQueued = 1

func (t *poolTarget) Do(p *des.Proc, it *Interaction, c *Call) (bool, error) {
	if !p.Bind() {
		return false, nil
	}
	var ok bool
	switch {
	case c.Stage == poolQueued:
		c.Stage = 0
		ok, _ = t.workers.Resolve(p)
	case t.suspend:
		p.Sleep(time.Millisecond)
		if !t.workers.AcquireOrSuspend(p, 150*time.Millisecond) {
			c.Stage = poolQueued
			return false, nil
		}
		ok = true
	default:
		p.Sleep(time.Millisecond)
		ok, _ = t.workers.AcquireTimeout(p, 150*time.Millisecond)
	}
	if !ok {
		p.Sleep(time.Millisecond)
		return true, errors.New("pool: worker timeout")
	}
	if tr, _ := p.Data().(*trace.Trace); tr != nil {
		tr.Add("web1", "served", p.Now(), p.Now())
	}
	p.Sleep(time.Duration(20+len(it.Name)) * time.Millisecond)
	t.workers.Release()
	return true, nil
}

// Sessions and open requests that queue suspended at the front door issue,
// finish, trace and time out exactly as they do when they park there.
func TestQueuedRequestsMatchParkedOnes(t *testing.T) {
	run := func(open, suspend bool) string {
		env := des.NewEnv()
		defer env.Shutdown()
		target := &poolTarget{workers: resource.NewPool(env, "workers", 3), suspend: suspend}
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
		if suspended := env.Counters().Suspensions; suspend == (suspended == 0) {
			t.Errorf("open=%v suspend=%v: %d suspensions", open, suspend, suspended)
		}
		spans := 0
		for _, tr := range tracer.Traces() {
			spans += len(tr.Spans)
		}
		return fmt.Sprintf("events=%d issued=%d completed=%d failed=%d inflight=%d spans=%d pool=%+v\n%v",
			n, w.Issued(), w.Completed(), w.Failed(), w.InFlight(), spans, target.workers.Stats(), log)
	}
	for _, open := range []bool{false, true} {
		parked, suspended := run(open, false), run(open, true)
		if parked != suspended {
			t.Errorf("open=%v: suspended run\n  %.600s\nparked run\n  %.600s", open, suspended, parked)
		}
		if !strings.Contains(parked, "pool: worker timeout") || !strings.Contains(parked, "<nil>") {
			t.Errorf("open=%v: the run misses the timeout or the served path", open)
		}
	}
}

// The queued-phase state fits the session's padding: a session stays one
// 64-byte allocation.
func TestSessionIs64Bytes(t *testing.T) {
	if n := unsafe.Sizeof(session{}); n != 64 {
		t.Errorf("unsafe.Sizeof(session{}) = %d, want 64", n)
	}
}

// An open arrival costs three allocations: its request state (context,
// front-door state and all), its process body, and its des.Proc.
func TestOpenArrivalAllocations(t *testing.T) {
	const rate, horizon = 2000, 5 * time.Second
	var arrivals uint64
	allocs := testing.AllocsPerRun(3, func() {
		env := des.NewEnv()
		w, err := StartOpen(env, OpenConfig{Arrivals: trace.Poisson(rate), Matrix: BrowseOnlyMix(), Seed: 1, Deadline: time.Second}, NewTable(), &stubTarget{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		env.Run(horizon)
		arrivals = w.Issued()
		env.Shutdown()
	})
	per := allocs / float64(arrivals)
	t.Logf("%.3f allocations per arrival", per)
	if per > 3.1 {
		t.Errorf("%.2f allocations per arrival, want at most 3.1", per)
	}
}
