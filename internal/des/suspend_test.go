package des

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// A suspended process's Unpark schedules exactly the wake a parked one's
// does: the same (at, seq) against bystanders scheduled just before and
// just after the Unpark at the same instant, and the same event count.
func TestSuspendWakesLikePark(t *testing.T) {
	trace := func(suspend bool) string {
		env := NewEnv()
		defer env.Shutdown()
		var log []string
		note := func(what string) { log = append(log, what+"@"+env.Now().String()) }
		runs := 0
		waiter := env.Go("waiter", func(p *Proc) {
			if suspend {
				if runs < 3 {
					runs++
					note("waiter")
					p.Suspend()
				}
				return
			}
			for i := 0; i < 3; i++ {
				note("waiter")
				p.Park()
			}
		})
		for i := 1; i <= 3; i++ {
			env.At(time.Duration(i)*time.Second, func() {
				env.At(env.Now(), func() { note("before") })
				waiter.Unpark()
				env.At(env.Now(), func() { note("after") })
			})
		}
		n := env.Run(10 * time.Second)
		return fmt.Sprintf("%v events=%d", log, n)
	}
	parked, suspended := trace(false), trace(true)
	if parked != suspended {
		t.Errorf("suspending process\n  %s\nparking process\n  %s", suspended, parked)
	}
}

// Shutdown ends a suspended process — it has no wake to be found by —
// also when an Unpark already scheduled its wake.
func TestShutdownEndsSuspended(t *testing.T) {
	env := NewEnv()
	var procs []*Proc
	for _, name := range []string{"forgotten", "unparked"} {
		procs = append(procs, env.Go(name, func(p *Proc) { p.Suspend() }))
	}
	env.Run(time.Second)
	if env.Live() != 2 || env.Pending() != 0 {
		t.Fatalf("Live() = %d, Pending() = %d; want 2 suspended processes and no events", env.Live(), env.Pending())
	}
	procs[1].Unpark()
	env.Shutdown()
	if env.Live() != 0 {
		t.Errorf("Live() = %d after Shutdown, want 0", env.Live())
	}
}

// After Suspend a run must return: blocking again, resting or suspending
// again panics, as does Suspend after Rest. The process is then finished,
// and its Unpark does not run it again.
func TestBlockingAfterSuspendPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first func(p *Proc)
		then  func(p *Proc)
		want  string
	}{
		{"Sleep", (*Proc).Suspend, func(p *Proc) { p.Sleep(time.Second) }, "Sleep after Suspend"},
		{"Park", (*Proc).Suspend, (*Proc).Park, "Park after Suspend"},
		{"Rest", (*Proc).Suspend, func(p *Proc) { p.Rest(time.Second) }, "Rest after Suspend"},
		{"Suspend", (*Proc).Suspend, (*Proc).Suspend, "Suspend twice"},
		{"SuspendAfterRest", func(p *Proc) { p.Rest(time.Second) }, (*Proc).Suspend, "Suspend after Rest"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv()
			defer env.Shutdown()
			runs := 0
			bad := env.Go("bad", func(p *Proc) {
				runs++
				tc.first(p)
				tc.then(p)
			})
			var got any
			func() {
				defer func() { got = recover() }()
				env.Run(time.Hour)
			}()
			pp, ok := got.(*ProcPanic)
			if !ok {
				t.Fatalf("Run recovered %T (%v), want *ProcPanic", got, got)
			}
			if s, _ := pp.Value.(string); !strings.Contains(s, tc.want) {
				t.Errorf("panic value %v, want it to mention %q", pp.Value, tc.want)
			}
			bad.Unpark()
			if n := env.Run(2 * time.Hour); n > 2 || runs != 1 || env.Live() != 0 {
				t.Errorf("after the panic: %d more events, %d runs, Live() = %d; want at most 2, 1, 0", n, runs, env.Live())
			}
		})
	}
}

// A panic in the run an Unpark woke after Suspend surfaces from Run as a
// *ProcPanic naming the process, and finishes it.
func TestPanicAfterSuspendWake(t *testing.T) {
	env := NewEnv()
	runs := 0
	p := env.Go("suspended", func(p *Proc) {
		runs++
		if runs == 1 {
			p.Suspend()
			return
		}
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	env.At(time.Second, p.Unpark)
	var got any
	func() {
		defer func() { got = recover() }()
		env.Run(time.Hour)
	}()
	pp, ok := got.(*ProcPanic)
	if !ok {
		t.Fatalf("Run recovered %T (%v), want *ProcPanic", got, got)
	}
	if pp.Proc != "suspended" || pp.Value != "kaboom" {
		t.Errorf("ProcPanic{Proc: %q, Value: %v}, want suspended/kaboom", pp.Proc, pp.Value)
	}
	if env.Live() != 0 {
		t.Errorf("Live() = %d after the panic, want 0", env.Live())
	}
	env.Shutdown()
	if env.Live() != 0 || runs != 2 {
		t.Errorf("after Shutdown: Live() = %d, %d runs; want 0 and 2", env.Live(), runs)
	}
}

// Counters count every coroutine bind and suspension: three processes
// that each sleep, suspend, and finish after their Unpark bind twice each.
func TestCounters(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	for i := 0; i < 3; i++ {
		runs := 0
		p := env.Go("proc", func(p *Proc) {
			runs++
			if runs == 1 {
				p.Sleep(time.Millisecond)
				p.Suspend()
			}
		})
		env.At(time.Second+time.Duration(i)*time.Millisecond, p.Unpark)
	}
	env.Run(time.Hour)
	want := Counters{Binds: 6, Suspensions: 3}
	if got := env.Counters(); got != want {
		t.Errorf("Counters() = %+v, want %+v", got, want)
	}
	if env.Live() != 0 {
		t.Errorf("Live() = %d, want 0", env.Live())
	}
}

// suspendOnRunner suspends at every run, on a coroutine; as a
// package-level func value it costs GoStep no closure.
func suspendOnRunner(p *Proc) {
	if p.Bind() {
		p.Suspend()
	}
}

// A suspension costs nothing beyond the process's own Proc: 10⁴ processes
// that suspend at once, in a step, allocate their Procs a slab at a time and the
// queue's nodes a chunk at a time, plus a few slice growths, and nothing
// per suspension.
func TestSuspendedProcsAllocateOnlySlabs(t *testing.T) {
	const n = 10000
	allocs := testing.AllocsPerRun(1, func() {
		env := NewEnv()
		for i := 0; i < n; i++ {
			env.GoStep("user", (*Proc).Suspend)
		}
		env.Run(time.Second)
		if env.Live() != n || env.Counters().Suspensions != n {
			t.Fatalf("Live() = %d, %d suspensions; want %d each", env.Live(), env.Counters().Suspensions, n)
		}
		env.Shutdown()
	})
	if limit := float64(n/procSlab + n/nodeChunk + 64); allocs > limit {
		t.Errorf("%v mallocs for %d suspended processes, want at most %v", allocs, n, limit)
	}
}

// Once warm, a suspend/Unpark cycle of steps allocates nothing.
func TestSuspendUnparkCycleAllocatesNothing(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	p := env.GoStep("waiter", (*Proc).Suspend)
	env.Run(0)
	allocs := testing.AllocsPerRun(100, func() {
		p.Unpark()
		env.Run(env.Now())
	})
	if allocs != 0 {
		t.Errorf("%v mallocs per suspend/Unpark cycle, want 0", allocs)
	}
	if got := env.Counters().Suspensions; got != 102 {
		t.Errorf("%d suspensions, want 102: the first and one per cycle", got)
	}
}

// Shutdown ends every live process over several Proc slabs, the last one
// partial: processes suspended, suspended with an Unpark pending, resting,
// sleeping on a coroutine and not yet started. Live() is 0 when it returns;
// the sleeping ones have unwound; and none of them runs again, neither at
// the wakes its old Env had queued nor on the next Env, which takes over
// the storage. Retired and panicked processes, already finished, stay so.
func TestShutdownWalksProcSlabs(t *testing.T) {
	env := NewEnv()
	runs, started := map[string]int{}, map[string]int{}
	unwound := 0
	start := func(kind string, fn func(p *Proc)) *Proc {
		started[kind]++
		return env.GoStep(kind, func(p *Proc) {
			runs[kind]++
			fn(p)
		})
	}
	var suspended []*Proc
	const minted = 3*procSlab + 17
	for i := 0; i < minted; i++ {
		switch i % 6 {
		case 0:
			suspended = append(suspended, start("suspended", suspendOnRunner))
		case 1:
			suspended = append(suspended, start("unparked", suspendOnRunner))
		case 2:
			start("resting", func(p *Proc) { p.Rest(time.Hour) })
		case 3:
			start("sleeping", func(p *Proc) {
				if p.Bind() {
					defer func() { unwound++ }()
					p.Sleep(time.Hour)
				}
			})
		case 4:
			start("retired", func(*Proc) {})
		case 5:
			start("panicked", func(*Proc) { panic("kaboom") })
		}
	}
	for done := false; !done; {
		func() {
			defer func() {
				if v := recover(); v != nil {
					if _, ok := v.(*ProcPanic); !ok {
						t.Fatalf("Run raised %v, want only *ProcPanic", v)
					}
				}
			}()
			env.Run(time.Second)
			done = true
		}()
	}
	for _, p := range suspended {
		if p.Name() == "unparked" {
			p.Unpark()
		}
	}
	for i := 0; i < 5; i++ {
		start("unstarted", func(*Proc) { t.Error("an unstarted process ran") })
	}
	if n := env.slab; n != 3 || len(env.slabs[n]) != 17 {
		t.Fatalf("minting from slab %d, which holds %d; want 3 and 17", n, len(env.slabs[n]))
	}
	wantLive := started["suspended"] + started["unparked"] + started["resting"] + started["sleeping"] + started["unstarted"]
	if env.Live() != wantLive {
		t.Fatalf("Live() = %d before Shutdown, want %d", env.Live(), wantLive)
	}
	before := fmt.Sprint(runs)
	env.Shutdown()
	if env.Live() != 0 {
		t.Errorf("Live() = %d after Shutdown, want 0", env.Live())
	}
	if unwound != started["sleeping"] {
		t.Errorf("%d sleeping processes unwound, want %d", unwound, started["sleeping"])
	}
	for _, p := range suspended {
		func() {
			defer func() {
				if s, _ := recover().(string); !strings.Contains(s, "after its Env's Shutdown") {
					t.Errorf("Unpark of %s after Shutdown panicked with %q", p.Name(), s)
				}
			}()
			p.Unpark()
		}()
	}
	next := NewEnv()
	defer next.Shutdown()
	next.GoStep("next", func(p *Proc) { p.Rest(time.Minute) })
	next.Run(2 * time.Hour)
	if after := fmt.Sprint(runs); after != before {
		t.Errorf("runs %s after Shutdown, want %s: an ended process ran again", after, before)
	}
}
