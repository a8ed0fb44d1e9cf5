//go:build go1.23

// Package des implements a deterministic discrete-event simulation engine —
// the substrate replacing the paper's physical Emulab testbed (§II-B).
// Every experiment behind the paper's figures runs on this clock, and its
// strict determinism is what makes the reproduction's trials replayable
// and its parallel sweeps byte-identical to serial ones.
//
// Simulated processes are ordinary Go functions, so execution is strictly
// serialized: the scheduler and at most one process run at any instant, on
// the same thread. Each dispatch of a process — its start, and each wake —
// runs its function as a step, on the scheduler's own stack, at that
// wake's place in the event order. A step schedules the process's next
// wake (Rest), waits for another component's Unpark (Suspend), or returns
// without either, which finishes the process; what the process remembers
// between its steps lives outside the function. The simulator's own
// processes wait only that way. A process may instead ask for a coroutine
// (Bind): its function then runs again on a coroutine of its own, from
// iter.Pull, where it may block in Sleep or Park until it returns, and the
// coroutine ends with that run. Go starts such a process; tests and the
// handoff microbenchmark use them.
//
// All ties are broken by schedule order, so a simulation with seeded random
// sources replays identically.
//
// The event queue (queue.go) is shaped by the traffic a closed-loop trial
// puts through it while preserving strict (at, seq) pop order: a FIFO lane
// for events scheduled at the current time (process starts, Unparks — 29%
// of the pushes on the paper's Fig 3 trial), and a calendar queue for the
// rest, its bucket width fitted to the spacing of the events nearest the
// head and re-fitted when it stops matching, over a 4-ary heap for events
// past its horizon. A queue entry is 16 bytes, its time and one key that
// packs the event's seq with what it wakes: a process, by its index in the
// Env's Proc slabs, or a Timer, by its index in the Env's timer registry.
// No event record stands between the two, and all queue memory is
// pointer-free and reused, so after warm-up neither pushes, pops nor
// re-fits allocate. At and After arm one-shot timers taken from a spare
// list, so they allocate nothing once warm either. Only a Timer the caller
// owns can be stopped or moved once scheduled. Stopping is lazy deletion
// with periodic compaction: an entry whose key is no longer its Timer's
// pending one is dead, so stop/re-arm churn (the PS-CPU's completion timer
// re-arms on nearly every state change) cannot accumulate dead entries,
// and the steady-state hot path — process sleeps, parks, timer re-arms —
// allocates nothing.
//
// Simulated time is a time.Duration measured from the start of the
// simulation. Events and processes interact only through the Env they were
// created on.
//
// Shutdown ends every live process: one inside a run unwinds its stack,
// deferred calls included, and its coroutine ends; one that holds no
// coroutine has no stack and never runs again. An Env's storage outlives
// it (storage.go): Shutdown resets its Proc slabs, queue memory and the
// records the layer above keeps with them (Keep) to a new Env's state and
// hands them to a process-wide pool of at most GOMAXPROCS sets; NewEnv
// adopts one, so the trials of a campaign run on the storage earlier
// trials left; and DropStorage, which a campaign calls when it returns,
// lets the pool's memory go. Pop order is (at, seq) whatever storage an
// Env runs on, so a warm Env replays identically, and a shut-down Env
// panics at any call that would write into the storage it handed on.
//
// The coroutines need Go 1.23 for iter.Pull; see toolchain.go.
package des

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Env is a simulation environment: a clock and a pending-event queue.
// Create one with NewEnv, start processes with Go or GoStep, then call Run.
// An Env must not be shared between operating-system threads that run
// concurrently; all interaction happens from scheduler context (inside a
// process or an event callback).
type Env struct {
	now time.Duration
	q   eventQueue
	seq uint64 // the next schedule's seq (see key)
	// timers holds every Timer made on this Env, at its index (Timer.idx),
	// so a queue entry names a Timer by index, not pointer, which keeps
	// the queue's memory pointer-free: the garbage collector neither scans
	// the wheel's buckets nor interposes write barriers on heap sifts, both
	// of which showed up hard in event-loop profiles when entries carried
	// pointers. spare holds the one-shot timers of At callbacks that fired,
	// for the next At to take.
	timers []*Timer
	spare  []*Timer
	// nDead counts queue entries whose Timer was stopped or re-armed since
	// they were pushed. They are skipped on pop; when they outnumber live
	// entries the queue is compacted in place.
	nDead   int
	stopped bool
	// end is how the run or step under way is ending; one process runs at
	// a time, so one record serves them all.
	end runEnd
	// live counts processes started and not yet finished.
	live     int
	counters Counters
	// slabs holds every Proc GoStep ever minted, procSlab to a slab, one
	// allocation each, which Shutdown hands on with the rest of the Env's
	// storage; slabs[slab] is the one GoStep mints from next, and those
	// after it, adopted from an earlier Env, are empty. procs holds those
	// that finished normally, for GoStep to reuse, so it is never longer
	// than the peak number of live processes.
	slabs [][]Proc
	slab  int
	procs []*Proc
	// kept is what the layer above keeps in the storage (Keep).
	kept Keeper
	// interrupted is the only cross-thread input to a running simulation:
	// wall-clock watchdogs set it to make Run return at the next event
	// boundary (Shutdown cannot be called concurrently with Run). Run
	// polls it every interruptStride events, not on every iteration, so
	// the atomic load stays off the hot path.
	interrupted atomic.Bool
	// failure holds a panic captured on a process's coroutine, left for
	// runProc to re-raise in Run's calling context.
	failure *ProcPanic
}

// ProcPanic is a panic that escaped a simulated process. The process
// coroutine does not crash the program directly — the scheduler re-raises
// the captured panic as a *ProcPanic from Run, where the experiment layer
// can recover it and turn the trial into an error result.
type ProcPanic struct {
	Proc  string // diagnostic name passed to Go or GoStep
	Value any    // the original panic value
	Stack []byte // the process coroutine's stack at the panic site
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("des: process %q panicked: %v", pp.Proc, pp.Value)
}

// NewEnv returns an environment with the clock at zero. It runs on the
// storage of an Env shut down earlier, if the process-wide pool holds one.
func NewEnv() *Env {
	e := &Env{}
	e.adopt()
	return e
}

// Now returns the current simulated time.
func (e *Env) Now() time.Duration { return e.now }

// Pending returns the number of events scheduled and not yet fired or
// stopped. Stopped timer firings are excluded even while their queue
// entries await lazy removal, so Pending is exactly the count of callbacks
// that will still run if the clock advances far enough.
func (e *Env) Pending() int { return e.q.len() - e.nDead }

// queueLen reports the physical queue size including dead entries awaiting
// compaction — white-box tests bound it under stop/re-arm churn.
func (e *Env) queueLen() int { return e.q.len() }

// Live returns the number of processes that have been started with Go or
// GoStep and have not yet finished: those inside a run (running, or blocked
// in Sleep or Park), those resting or suspended between runs or steps, and
// those not yet started. A process finishes when fn returns without Rest,
// Suspend or Bind, panics, or is ended by Shutdown.
func (e *Env) Live() int { return e.live }

// Counters are the engine's exact process-handoff counts. They depend on
// the simulation alone, never on the host, so a trial reports the same
// values on every run and every architecture. Every dispatch of a live
// process that holds no coroutine is counted once, in Steps or in Binds.
type Counters struct {
	// Binds counts runs started on a coroutine: every step that asked for
	// one (Bind).
	Binds uint64
	// Suspensions counts runs and steps ended by Suspend.
	Suspensions uint64
	// Steps counts dispatches served by a step alone, without a coroutine.
	Steps uint64
}

// Counters returns the handoff counts so far. Pure read.
func (e *Env) Counters() Counters { return e.counters }

// Audit checks the scheduler's internal bookkeeping: the lazy-deletion
// dead-entry counter must stay within the physical queue, and the queue's
// own accounting must hold — its components sum to its size, the wheel's
// count matches its buckets, and every lane entry is at the lane's clock.
// It is a pure read, linear in the queue size, called through
// testbed.Testbed.Audit at every experiment trial's horizon and, for a
// trial that drains, after the drain; a violation means the event
// lifecycle itself lost track of an event, not that the model misbehaved.
func (e *Env) Audit() error {
	if e.nDead < 0 || e.nDead > e.q.len() {
		return fmt.Errorf("des: dead-entry counter %d outside physical queue of %d entries", e.nDead, e.q.len())
	}
	return e.q.audit()
}

// procSlab is how many Procs GoStep mints at a time. The runtime puts an
// 8-byte header on a pointerful allocation over 512 bytes, so 63 Procs of
// 64 bytes fit the 4096-byte size class, with 56 bytes to spare.
const procSlab = 63

// timerRef marks the ref of a Timer's queue entry: the Timer's index plus
// timerRef. A ref below it is the index of a Proc in the Env's slabs.
const timerRef = 1 << (refBits - 1)

// key mints the next seq, the schedule's place in the Env's order, and
// packs it with ref into a queue key. Every schedule takes exactly one, so
// seqs are unique and count schedules in order.
func (e *Env) key(ref uint32) uint64 {
	seq := e.seq
	if seq >= 1<<(64-refBits) {
		panic("des: more than 2^40 events scheduled on one Env")
	}
	e.seq = seq + 1
	return seq<<refBits | uint64(ref)
}

// refIndex returns i, the index of the next Proc or Timer of its kind,
// as a ref, and panics if a queue key cannot hold it.
func refIndex(i int, kind string) uint32 {
	if i >= timerRef {
		panic("des: more than 2^23 " + kind + " on one Env")
	}
	return uint32(i)
}

// proc returns the Proc at index i in e's slabs.
func (e *Env) proc(i uint32) *Proc {
	return &e.slabs[i/procSlab][i%procSlab]
}

// bumpDead records that a queue entry went dead in place, compacting the
// queue when dead entries outnumber live ones. Compaction preserves firing
// order exactly: entries are keyed by (at, seq), a total order, so any
// valid heap layout pops identically.
func (e *Env) bumpDead() {
	e.nDead++
	if n := e.q.len(); n >= compactMin && e.nDead*2 > n {
		e.compact()
	}
}

// compactMin is the queue size below which compaction is not worth it; it
// bounds the physical queue at roughly twice the live event count plus
// this constant.
const compactMin = 1024

// interruptStride is how many events Run processes between polls of the
// interrupted flag.
const interruptStride = 64

// compact drops the dead entries: a process wake is never stopped, and a
// Timer's entry is live while its key is the Timer's pending one.
func (e *Env) compact() {
	e.q.sweep(func(en entry) bool {
		ref := en.ref()
		return ref < timerRef || e.timers[ref-timerRef].key == en.key
	})
	e.nDead = 0
}

// At schedules fn to run at absolute simulated time t. Callbacks run in
// scheduler context and must not block; to perform blocking operations,
// start a process with Go instead. The callback cannot be called off: a
// component that must stop or move a scheduled callback owns a Timer.
// Scheduling in the past (t < Now) panics.
//
// At arms a one-shot Timer no caller sees, taken from the Env's spare list
// and put back when it fires, so once warm it allocates nothing.
func (e *Env) At(t time.Duration, fn func()) {
	if t < e.now || e.stopped {
		e.badSchedule(t)
	}
	var tm *Timer
	if n := len(e.spare) - 1; n >= 0 {
		tm = e.spare[n]
		e.spare = e.spare[:n]
	} else {
		tm = e.NewTimer(nil)
		tm.once = true
	}
	tm.fn = fn
	tm.ArmAt(t)
}

// After schedules fn to run d from now. A negative d panics.
func (e *Env) After(d time.Duration, fn func()) {
	e.At(e.now+d, fn)
}

// schedProc schedules p to resume at absolute time t — the engine's
// allocation-free internal path for process starts and wakes, which need
// no closure.
func (e *Env) schedProc(t time.Duration, p *Proc) {
	if t < e.now || e.stopped {
		e.badSchedule(t)
	}
	e.q.push(entry{t, e.key(p.idx)}, e.now)
}

// badSchedule panics for scheduling at t in the past, or on an Env whose
// Shutdown handed its storage on to another.
func (e *Env) badSchedule(t time.Duration) {
	if e.stopped {
		panic("des: scheduling an event after Shutdown")
	}
	panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
}

// Run processes events in timestamp order until the queue is empty or the
// next event is later than `until`, then advances the clock to `until`.
// It returns the number of events processed (stopped timer firings are
// skipped and not counted). Run may be called repeatedly with increasing
// horizons.
func (e *Env) Run(until time.Duration) int {
	if e.stopped {
		panic("des: Run after Shutdown")
	}
	n := 0
	poll := 0
	for {
		if poll == 0 {
			if e.interrupted.Load() {
				return n
			}
			poll = interruptStride
		}
		poll--
		top, ok := e.q.peek()
		if !ok || top.at > until {
			break
		}
		e.q.pop()
		if ref := top.ref(); ref < timerRef {
			e.now = top.at
			e.runProc(e.proc(ref))
		} else {
			t := e.timers[ref-timerRef]
			if t.key != top.key {
				e.nDead-- // stopped (or re-armed) in place; entry now drained
				continue
			}
			e.now = top.at
			// Disarm before the callback, which may arm t again; a one-shot
			// timer goes back on the spare list first, for the callback's At
			// to take.
			t.key = 0
			fn := t.fn
			if t.once {
				t.fn = nil
				e.spare = append(e.spare, t)
			}
			fn()
		}
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// Interrupt asks a running simulation to stop early: Run returns without
// advancing the clock further, leaving pending events queued. The request
// is observed within interruptStride events. It is the one Env method safe
// to call from another operating-system thread while Run executes —
// wall-clock watchdogs use it to flag stalled simulations, after which the
// owner observes Interrupted and calls Shutdown.
func (e *Env) Interrupt() { e.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (e *Env) Interrupted() bool { return e.interrupted.Load() }

// Shutdown ends every live process, so Live() is 0 when it returns. A
// process inside a run (blocked in Sleep or Park) is resumed on the
// caller's thread and unwinds with a sentinel panic, which runs its
// deferred calls and ends its coroutine. A process that holds no
// coroutine — not yet started, resting, suspended, or waiting between
// steps — has no stack to unwind and simply never runs again. The Env's
// storage — its Proc slabs, queue memory and kept records (Keep) — then
// goes to a process-wide pool for the next NewEnv to adopt (see
// DropStorage). Every Timer armed at Shutdown is left unarmed.
//
// After Shutdown the Env is unusable, and scheduling on it — At, After,
// Timer.Arm, ArmAt or Stop, Unpark — panics rather than write into
// storage another Env may own by then. Shutdown is safe to call once Run
// has returned; it must not be called from scheduler context.
func (e *Env) Shutdown() {
	if e.stopped {
		return
	}
	e.stopped = true
	// The processes inside a run are found in the slabs, which a trial,
	// whose processes never bind, does not walk. Resuming one unwinds it,
	// and its coroutine ends; one whose coroutine already ended under a
	// runtime.Goexit, which went on to end Run's goroutine, still holds
	// it, and resuming that does nothing.
	if e.counters.Binds != 0 {
		for _, slab := range e.slabs {
			for i := range slab {
				if p := &slab[i]; p.co != nil {
					e.end = running
					p.co.resume()
					p.co = nil
				}
			}
		}
	}
	// The processes still live hold no coroutine; handOn clears their Procs.
	e.live = 0
	e.handOn()
}

// Timer is a re-armable scheduled callback owned by a single component —
// the one scheduled callback that can be stopped or moved (a PS-CPU's
// completion event, a pool waiter's timeout). Arm cancels any previously
// armed firing, so at most one is outstanding. Create with Env.NewTimer;
// use only from scheduler context.
type Timer struct {
	env  *Env
	fn   func()
	key  uint64 // the pending firing's queue key; 0 while unarmed
	idx  uint32 // position in Env.timers
	once bool   // an At callback's: back on Env.spare when it fires
}

// NewTimer returns an unarmed timer that runs fn each time it fires.
func (e *Env) NewTimer(fn func()) *Timer {
	t := &Timer{env: e, fn: fn, idx: refIndex(len(e.timers), "timers")}
	e.timers = append(e.timers, t)
	return t
}

// Arm schedules the timer to fire d from now, canceling any earlier
// pending firing. A negative d panics.
func (t *Timer) Arm(d time.Duration) { t.ArmAt(t.env.now + d) }

// ArmAt schedules the timer to fire at absolute time at, canceling any
// earlier pending firing. Scheduling in the past panics.
func (t *Timer) ArmAt(at time.Duration) {
	e := t.env
	if at < e.now || e.stopped {
		e.badSchedule(at)
	}
	if t.key != 0 {
		t.cancel()
	}
	t.key = e.key(timerRef + t.idx)
	e.q.push(entry{at, t.key}, e.now)
}

// Stop cancels the pending firing, if any. Its queue entry is dead at
// once, skipped on pop or dropped at compaction. Stop after Shutdown
// panics: the queue may belong to another Env now.
func (t *Timer) Stop() {
	if t.env.stopped {
		panic("des: Timer.Stop after Shutdown")
	}
	if t.key != 0 {
		t.cancel()
	}
}

// cancel disarms t, which leaves its pending entry dead.
func (t *Timer) cancel() {
	t.key = 0
	t.env.bumpDead()
}

// killed is the sentinel panic value used to unwind killed processes.
type killedSentinel struct{}

// Proc is a simulated process: a function whose execution interleaves
// deterministically with the simulation clock. All Proc methods must be
// called from the process itself.
//
// A Proc holds a coroutine only while it is inside a run of fn: from the
// dispatch whose step asked for one (Bind) until fn returns, including any
// Sleep or Park in between; the coroutine ends with the run. A process
// that has not started yet, or that ended its last run or step with Rest
// or Suspend, holds none, and its next dispatch runs fn as a step (see
// GoStep). In a trial no process asks for one: a thinking user rests, and
// a request in service rests through each hop and pause and suspends
// through each CPU burst and pool wait. A Proc that finishes normally is
// reused by a later GoStep. Code that must run when a run ends uses a
// plain defer, which runs at fn's return, at a panic, and in Shutdown's
// unwind.
type Proc struct {
	env   *Env
	name  string
	co    *coro       // the coroutine of the run p is inside, else nil
	fn    func(*Proc) // nil once the process has finished
	data  any
	idx   uint32    // position in Env.slabs, which names p in queue entries
	state procState // where p stands while it holds no coroutine
}

// procState is where a process that holds no coroutine stands, which
// Unpark checks.
type procState uint8

const (
	free      procState = iota // on Env.procs, or cleared by Shutdown
	scheduled                  // live and not suspended: its wake is queued, or it is stepping
	waiting                    // suspended, until its Unpark
)

// coro is the coroutine of one run. Control passes between the scheduler
// (resume) and the process (yield) by a runtime coroutine switch on the
// same thread.
type coro struct {
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
}

// SetData attaches arbitrary user data to the process (e.g. a per-request
// trace that downstream components append to).
func (p *Proc) SetData(v any) { p.data = v }

// Data returns the value set with SetData, or nil.
func (p *Proc) Data() any { return p.data }

// finish marks p as ended.
func (e *Env) finish(p *Proc) {
	p.fn = nil
	e.live--
}

// retire puts p, which finished normally, on e.procs for GoStep to reuse.
// A process that panicked or that Shutdown ended is never retired, so the
// stale wake of one stays a no-op (see runProc).
func (e *Env) retire(p *Proc) {
	p.state = free
	e.procs = append(e.procs, p)
}

// runEnd records which call, if any, ended the current run or step early.
// The order matters: Rest and Suspend are allowed at stepping and below,
// the blocking calls only at running.
type runEnd uint8

const (
	running  runEnd = iota
	stepping        // inside a step, nothing asked for yet
	rested
	suspended
	bound // a step asked for a coroutine
)

func (r runEnd) String() string {
	switch r {
	case rested:
		return "Rest"
	case suspended:
		return "Suspend"
	}
	return "Bind"
}

// Go starts a process like GoStep whose steps only ask for a coroutine
// (Bind): fn itself runs only on one, so it may block anywhere, and starts
// again from the top at each wake after Rest or Suspend.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	return e.GoStep(name, func(p *Proc) {
		if p.Bind() {
			fn(p)
		}
	})
}

// GoStep starts a new process running fn. The process begins executing at
// the current simulated time (after the caller yields control). name is
// used in diagnostics only. Whenever the process is dispatched without a
// coroutine — its start, and each wake after Rest or Suspend — fn first
// runs as a step: on the scheduler's stack, at that wake's place in the
// event order. A step may
//   - schedule the process's next wake with Rest and return;
//   - wait for another component's Unpark with Suspend and return;
//   - return without either, which finishes the process;
//   - ask for a coroutine with Bind and return: the engine starts one and
//     runs fn again from the top on it, at the same instant, before any
//     other event — from there on fn runs on the coroutine until it
//     returns, and the coroutine ends with it.
//
// Sleep and Park in a step panic: code that blocks must first make sure of
// a coroutine with Bind. A panic in a step finishes the process and leaves
// Run as a *ProcPanic, as a panic on a coroutine does.
//
// The returned *Proc is valid only until the process finishes: a process
// that finishes normally is reused by a later GoStep, so an open workload
// that starts one process per request allocates none once warm; after
// Shutdown, every Proc may be reused by a later Env's GoStep.
func (e *Env) GoStep(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.procs) - 1; n >= 0 {
		p = e.procs[n]
		e.procs = e.procs[:n]
	} else {
		if e.slab == len(e.slabs) {
			e.slabs = append(e.slabs, make([]Proc, 0, procSlab))
		}
		s := e.slabs[e.slab]
		s = s[:len(s)+1]
		e.slabs[e.slab], p = s, &s[len(s)-1]
		p.idx = refIndex(e.slab*procSlab+len(s)-1, "Procs")
		if len(s) == procSlab {
			e.slab++
		}
	}
	*p = Proc{env: e, name: name, fn: fn, idx: p.idx, state: scheduled}
	e.live++
	e.schedProc(e.now, p)
	return p
}

// runProc transfers control to p until p yields again. A p that holds no
// coroutine (it has not started, it rested, or it suspended) is stepped
// first, and given a coroutine of its own only if its step asks for one.
// If the process died with a real panic, the captured *ProcPanic is
// re-raised here — in scheduler context — so it propagates out of Run.
func (e *Env) runProc(p *Proc) {
	if p.co == nil {
		if p.fn == nil || !e.step(p) {
			return // a finished step, or the wake of a process that panicked after Rest or Suspend
		}
		// The coroutine body and its recover are closures of runProc, so
		// CPU profiles charge them to the handoff.
		co := &coro{}
		co.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
			co.yield = yield
			pp := func() (pp *ProcPanic) {
				defer func() {
					v := recover()
					if _, killed := v.(killedSentinel); v != nil && !killed {
						pp = &ProcPanic{Proc: p.name, Value: v, Stack: debug.Stack()}
					}
				}()
				p.fn(p)
				return nil
			}()
			p.co = nil
			switch {
			case pp != nil || e.end == running:
				e.finish(p)
				if pp == nil && !e.stopped {
					e.retire(p)
				}
			case e.end == suspended:
				p.state = waiting
				e.counters.Suspensions++
			} // a rested process waits for its scheduled wake
			// runProc re-raises a panic in Run's calling context, where a
			// trial wrapper can recover.
			e.failure = pp
		})
		p.co = co
		e.counters.Binds++
	}
	e.end = running
	p.co.resume()
	if f := e.failure; f != nil {
		e.failure = nil
		panic(f)
	}
}

// step runs fn as a step of p and reports whether it asked for a
// coroutine. A step that neither rested, suspended nor asked for one
// finishes p.
func (e *Env) step(p *Proc) bool {
	e.end = stepping
	p.state = scheduled // a suspended process steps like any other
	e.callStep(p)
	switch e.end {
	case bound:
		return true
	case stepping:
		e.finish(p)
		e.retire(p)
	case suspended:
		p.state = waiting
		e.counters.Suspensions++
	}
	e.counters.Steps++
	return false
}

// callStep calls p's fn on the scheduler's stack. A panic finishes p and
// leaves Run as a *ProcPanic carrying the stack at the panic site.
func (e *Env) callStep(p *Proc) {
	defer func() {
		if v := recover(); v != nil {
			pp := &ProcPanic{Proc: p.name, Value: v, Stack: debug.Stack()}
			e.finish(p)
			panic(pp)
		}
	}()
	p.fn(p)
}

// yield returns control to the scheduler until this process is resumed by
// a scheduled event, or by Shutdown, which unwinds it.
func (p *Proc) yield() {
	p.co.yield(struct{}{})
	if p.env.stopped {
		panic(killedSentinel{})
	}
}

// Now returns the current simulated time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Name returns the diagnostic name given to Go or GoStep.
func (p *Proc) Name() string { return p.name }

// Sleep blocks the process for d of simulated time. Negative d panics, as
// does a Sleep in a step or after Rest or Suspend in the same run.
func (p *Proc) Sleep(d time.Duration) {
	e := p.env
	if e.end != running {
		p.misuse("Sleep")
	}
	e.schedProc(e.now+d, p)
	p.yield()
}

// Rest ends the process's current run without ending the process: it
// schedules the same wake Sleep(d) would, and when fn returns the process
// stays live and its coroutine ends. At the wake, fn runs again from the
// top, so whatever the process must remember between runs lives outside
// fn's stack. fn must return after Rest without calling Sleep, Park,
// Rest, Suspend or Bind again; those panic. Negative d panics.
//
// A process that spends most of its life waiting — a closed-loop user
// thinking between requests — rests instead of sleeping, so only
// processes inside a run hold a coroutine and its stack. In a step, Rest
// schedules the process's next wake and the step must return.
func (p *Proc) Rest(d time.Duration) {
	e := p.env
	if e.end > stepping {
		p.misuse("Rest")
	}
	e.schedProc(e.now+d, p)
	e.end = rested
}

// Suspend ends the process's current run or step without ending the
// process and without scheduling a wake: the process waits, holding no
// coroutine, until another component calls Unpark on it, and then fn runs
// again from the top, as a step — a request waiting for a pool unit or
// its CPU burst records where it stands outside fn and suspends. fn must
// return after Suspend without calling Sleep, Park, Rest, Suspend or Bind
// again; those panic.
//
// The Unpark schedules the same wake it would for a parked process, so
// replacing a Park by a Suspend leaves every event's (at, seq) unchanged.
func (p *Proc) Suspend() {
	if p.env.end > stepping {
		p.misuse("Suspend")
	}
	p.env.end = suspended
}

// Bind makes sure fn is running on a coroutine. On one it reports true. In
// a step it asks for one and reports false, and the step must return: the
// engine then starts a coroutine and runs fn again from the top on it, at
// the same instant. Code that blocks and may run in a step calls Bind
// first.
func (p *Proc) Bind() bool {
	switch p.env.end {
	case running:
		return true
	case stepping:
		p.env.end = bound
		return false
	}
	p.misuse("Bind")
	return false
}

// misuse panics for a blocking call made in a step, or a blocking or
// run-ending call made after Rest, Suspend or Bind already ended the run.
func (p *Proc) misuse(call string) {
	end := p.env.end
	if end == stepping {
		panic("des: " + call + " in a step")
	}
	if end.String() == call {
		panic("des: " + call + " twice in the same run")
	}
	panic("des: " + call + " after " + end.String() + " in the same run")
}

// Park blocks the process until another component calls Unpark on it.
// Typical use: append p to a wait queue, then Park; the component that
// grants the resource calls Unpark. Park in a step, or after Rest or
// Suspend in the same run, panics.
func (p *Proc) Park() {
	if p.env.end != running {
		p.misuse("Park")
	}
	p.yield()
}

// Unpark schedules p to resume at the current simulated time. It must be
// called from scheduler context (another process or an event callback), and
// p must be parked or suspended — or guaranteed to park or suspend before
// any further simulated event fires — when the wakeup is delivered. A
// resting process is neither: its wake is already scheduled.
//
// Unpark panics if p is neither inside a run nor suspended (it is resting
// or not yet started), if p finished normally, or if its Env was shut
// down: its Proc may be reused, so a stale wake would run another
// process. The Unpark of a process that panicked is a no-op.
func (p *Proc) Unpark() {
	if p.co == nil && p.state != waiting && (p.state == free || p.fn != nil) {
		p.badUnpark()
	}
	p.env.schedProc(p.env.now, p)
}

// badUnpark panics for the Unpark of a process that is neither parked nor
// suspended, or that its Env's Shutdown cleared.
func (p *Proc) badUnpark() {
	if p.env == nil {
		panic("des: Unpark of a process after its Env's Shutdown")
	}
	if p.state == free {
		panic(fmt.Sprintf("des: Unpark of process %q after it finished", p.name))
	}
	panic(fmt.Sprintf("des: Unpark of process %q, which is neither parked nor suspended", p.name))
}
