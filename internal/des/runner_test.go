package des

import (
	"runtime"
	"strings"
	"sync"
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

// runnerOf reports the runner a process is bound to, from inside it.
func runnerOf(env *Env, name string, body func(p *Proc)) **runner {
	var r *runner
	env.Go(name, func(p *Proc) {
		r = p.r
		body(p)
	})
	return &r
}

func panicker(*Proc) { panic("kaboom") }

// A runner freed by a normal return, a ProcPanic or a kill runs the next
// process normally: same coroutine, deferred calls run newest first, and a
// ProcPanic stack that still names the panicking function.
func TestRunnerReuse(t *testing.T) {
	env := NewEnv()
	var order []string
	check := func(exit string) {
		t.Helper()
		if len(order) != 2 || order[0] != "second" || order[1] != "first" {
			t.Errorf("after %s: deferred call order %v, want [second first]", exit, order)
		}
		order = nil
	}
	note := func(name string) func() {
		return func() { order = append(order, name) }
	}

	first := runnerOf(env, "returns", func(p *Proc) {
		defer note("first")()
		defer note("second")()
		p.Sleep(time.Second)
	})
	env.Run(2 * time.Second)
	check("return")

	second := runnerOf(env, "panics", func(p *Proc) {
		defer note("first")()
		defer note("second")()
		p.Sleep(time.Second)
		panicker(p)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		env.Run(4 * time.Second)
	}()
	if *second != *first {
		t.Error("process after a normal return did not reuse the runner")
	}
	pp, ok := got.(*ProcPanic)
	if !ok {
		t.Fatalf("Run recovered %T (%v), want *ProcPanic", got, got)
	}
	if s := string(pp.Stack); !strings.Contains(s, "des.panicker") {
		t.Errorf("ProcPanic stack does not name the panicking function:\n%s", s)
	}
	check("panic")

	third := runnerOf(env, "killed", func(p *Proc) {
		defer note("first")()
		defer note("second")()
		p.Park()
	})
	env.Run(5 * time.Second)
	if *third != *first {
		t.Error("process after a ProcPanic did not reuse the runner")
	}
	env.Shutdown()
	check("kill")

	// The killed process's runner went to the shared pool; the next Env
	// takes it from there.
	next := NewEnv()
	done := false
	fourth := runnerOf(next, "after-kill", func(p *Proc) {
		defer note("first")()
		defer note("second")()
		p.Sleep(time.Second)
		done = true
	})
	next.Run(2 * time.Second)
	if *fourth != *first {
		t.Error("process in a new Env did not reuse the killed process's runner")
	}
	if !done {
		t.Error("process on a reused runner did not finish")
	}
	check("return on a new Env")
	next.Shutdown()
}

// Envs on separate goroutines share the runner pool: each churns short
// processes and shuts down while the other does the same.
func TestConcurrentEnvsSharePool(t *testing.T) {
	const envs, rounds, users = 2, 20, 50
	var wg sync.WaitGroup
	for g := 0; g < envs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
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
							p.Sleep(3 * time.Millisecond)
						}
					})
				}
				env.Run(100 * time.Millisecond)
				env.Shutdown()
				if env.Live() != 0 {
					t.Errorf("Live() = %d after Shutdown, want 0", env.Live())
				}
				if want := users + started; cleaned != want {
					t.Errorf("%d deferred calls after Shutdown, want %d", cleaned, want)
				}
			}
		}()
	}
	wg.Wait()
}

// In steady state, starting and finishing a short process allocates
// nothing: its Proc, runner, queue node and bookkeeping are all reused.
func TestShortProcAllocatesNothing(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	short := func(p *Proc) {
		if p.Bind() {
			p.Sleep(time.Millisecond)
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
