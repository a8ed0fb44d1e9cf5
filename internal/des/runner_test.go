package des

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Shutdown unwinds synchronously: the moment it returns, every process has
// finished and run its deferred calls, with no polling.
func TestShutdownLeavesNoLiveProcs(t *testing.T) {
	env := NewEnv()
	cleaned := 0
	env.Go("parked", func(p *Proc) {
		defer func() { cleaned++ }()
		p.Park()
	})
	env.Go("sleeping", func(p *Proc) {
		defer func() { cleaned++ }()
		defer func() { cleaned++ }()
		p.Sleep(time.Hour)
	})
	env.Run(time.Second)
	env.Go("never-started", func(p *Proc) { t.Error("killed process ran its body") })
	if env.Live() != 3 {
		t.Fatalf("Live() = %d before Shutdown, want 3", env.Live())
	}
	env.Shutdown()
	if env.Live() != 0 {
		t.Errorf("Live() = %d the moment Shutdown returned, want 0", env.Live())
	}
	if cleaned != 3 {
		t.Errorf("%d deferred calls done the moment Shutdown returned, want 3", cleaned)
	}
}

func panicker(*Proc) { panic("kaboom") }

// A run that returns, panics or is killed by Shutdown runs its deferred
// calls newest first, and a ProcPanic's stack names the panicking
// function.
func TestRunEndsUnwindLIFO(t *testing.T) {
	for _, end := range []string{"return", "panic", "kill"} {
		t.Run(end, func(t *testing.T) {
			env := NewEnv()
			var order []string
			note := func(name string) func() {
				return func() { order = append(order, name) }
			}
			env.Go(end, func(p *Proc) {
				defer note("first")()
				defer note("second")()
				p.Sleep(time.Second)
				switch end {
				case "panic":
					panicker(p)
				case "kill":
					p.Park()
				}
			})
			var got any
			func() {
				defer func() { got = recover() }()
				env.Run(2 * time.Second)
			}()
			env.Shutdown()
			if len(order) != 2 || order[0] != "second" || order[1] != "first" {
				t.Errorf("deferred call order %v, want [second first]", order)
			}
			if env.Live() != 0 {
				t.Errorf("Live() = %d after Shutdown, want 0", env.Live())
			}
			pp, _ := got.(*ProcPanic)
			if (pp != nil) != (end == "panic") {
				t.Fatalf("Run recovered %v", got)
			}
			if pp != nil && !strings.Contains(string(pp.Stack), "des.panicker") {
				t.Errorf("ProcPanic stack does not name the panicking function:\n%s", pp.Stack)
			}
		})
	}
}

// No goroutine outlives Shutdown: each coroutine ends with its run, and
// Shutdown unwinds the runs still open. A hundred users, each sleeping in
// a loop and starting a short request each time round, leave the
// goroutine count where it was, and every run, finished or killed, has
// run its deferred call.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	const users = 100
	before := runtime.NumGoroutine()
	env := NewEnv()
	started, cleaned := 0, 0
	for u := 0; u < users; u++ {
		env.Go("user", func(p *Proc) {
			defer func() { cleaned++ }()
			for {
				started++
				p.env.Go("request", func(q *Proc) {
					defer func() { cleaned++ }()
					q.Sleep(time.Millisecond)
				})
				p.Sleep(time.Duration(2+u%3) * time.Millisecond)
			}
		})
	}
	env.Run(100 * time.Millisecond)
	if during := runtime.NumGoroutine(); during < before+users {
		t.Fatalf("%d goroutines with %d users inside a run, want at least %d", during, users, before+users)
	}
	env.Shutdown()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after Shutdown, want at most the %d before the Env", after, before)
	}
	if want := users + started; cleaned != want || env.Live() != 0 {
		t.Errorf("%d deferred calls and Live() = %d after Shutdown, want %d and 0", cleaned, env.Live(), want)
	}
}

// Shutdown finds the runs it must unwind in every slab, however they are
// spread: a sleeper first in each of two slabs with resting processes
// between them, and a sleeper in every place of two full slabs. Each
// sleeper runs its deferred call, and the goroutine count goes back to
// where it was.
func TestShutdownUnwindsRunsInEverySlab(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sleep func(i int) bool // whether the i-th process sleeps on a coroutine; the rest rest
	}{
		{"first-of-each-slab", func(i int) bool { return i%procSlab == 0 }},
		{"two-full-slabs", func(int) bool { return true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			env := NewEnv()
			sleepers, cleaned := 0, 0
			for i := 0; i < 2*procSlab; i++ {
				if !tc.sleep(i) {
					env.GoStep("resting", func(p *Proc) { p.Rest(time.Hour) })
					continue
				}
				sleepers++
				env.Go("sleeping", func(p *Proc) {
					defer func() { cleaned++ }()
					p.Sleep(time.Hour)
				})
			}
			env.Run(time.Second)
			env.Shutdown()
			if cleaned != sleepers || env.Live() != 0 {
				t.Errorf("%d deferred calls and Live() = %d after Shutdown, want %d and 0", cleaned, env.Live(), sleepers)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines after Shutdown, want at most the %d before the Env", after, before)
			}
		})
	}
}

// In steady state, starting and finishing a short process allocates
// nothing: its Proc, queue node and bookkeeping are all reused. The
// process rests once, as a request in service does, and finishes at its
// wake; one is live at a time, so one flag tells its two steps apart.
func TestShortProcAllocatesNothing(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	rested := false
	short := func(p *Proc) {
		if rested = !rested; rested {
			p.Rest(time.Millisecond)
		}
	}
	churn := func() {
		env.GoStep("short", short)
		env.Run(env.Now() + time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		churn()
	}
	if allocs := testing.AllocsPerRun(1000, churn); allocs != 0 {
		t.Errorf("%v allocations per short process, want 0", allocs)
	}
	if env.Live() != 0 || env.Counters().Binds != 0 {
		t.Errorf("Live() = %d, %d binds; want 0 and 0", env.Live(), env.Counters().Binds)
	}
}

// runtime.Goexit in a process (t.FailNow in a test) ends its coroutine and
// then Run's goroutine; a deferred Shutdown there still returns.
func TestGoexitInProcessEndsRunGoroutine(t *testing.T) {
	env := NewEnv()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer env.Shutdown()
		env.Go("parked", func(p *Proc) { p.Park() })
		env.Go("exits", func(*Proc) { runtime.Goexit() })
		env.Run(time.Second)
		t.Error("Run returned after a process called runtime.Goexit")
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after a process called runtime.Goexit")
	}
	if env.Live() != 0 {
		t.Errorf("Live() = %d after Shutdown, want 0", env.Live())
	}
}
