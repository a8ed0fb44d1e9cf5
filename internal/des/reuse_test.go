package des

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// A process that finishes normally, in a step or on a coroutine, is reused by
// the next GoStep, and starts clean: its new name, no data, and Live()
// counts it once.
func TestReusedProcStartsClean(t *testing.T) {
	for _, onRunner := range []bool{false, true} {
		t.Run(fmt.Sprintf("runner=%v", onRunner), func(t *testing.T) {
			env := NewEnv()
			defer env.Shutdown()
			first := env.GoStep("first", func(p *Proc) {
				if onRunner && !p.Bind() {
					return
				}
				p.SetData("first's data")
			})
			env.Run(time.Second)
			if env.Live() != 0 {
				t.Fatalf("Live() = %d after the first life, want 0", env.Live())
			}
			var name string
			var data any
			second := env.GoStep("second", func(p *Proc) {
				name, data = p.Name(), p.Data()
			})
			if second != first {
				t.Fatal("GoStep did not reuse the finished process")
			}
			if env.Live() != 1 {
				t.Errorf("Live() = %d with the reused process not yet started, want 1", env.Live())
			}
			env.Run(2 * time.Second)
			if name != "second" || data != nil {
				t.Errorf("reused process saw Name() = %q, Data() = %v; want second and nil", name, data)
			}
			if env.Live() != 0 {
				t.Errorf("Live() = %d after the second life, want 0", env.Live())
			}
		})
	}
}

// A process that panics after Rest, in a step or on a coroutine, is not
// reused, so the wake its Rest scheduled stays a no-op instead of running
// the next process early; so does an Unpark of it.
func TestPanickedProcIsNotReused(t *testing.T) {
	for _, onRunner := range []bool{false, true} {
		t.Run(fmt.Sprintf("runner=%v", onRunner), func(t *testing.T) {
			env := NewEnv()
			defer env.Shutdown()
			bad := env.GoStep("bad", func(p *Proc) {
				if onRunner && !p.Bind() {
					return
				}
				p.Rest(time.Second)
				panic("kaboom")
			})
			func() {
				defer func() {
					if _, ok := recover().(*ProcPanic); !ok {
						t.Fatal("Run did not raise the process's panic")
					}
				}()
				env.Run(time.Millisecond)
			}()
			var woke []time.Duration
			start := env.Now()
			next := env.GoStep("next", func(p *Proc) {
				woke = append(woke, p.Now())
				if len(woke) == 1 {
					p.Rest(time.Hour)
				}
			})
			if next == bad {
				t.Fatal("GoStep reused a process that panicked")
			}
			bad.Unpark()
			env.Run(2 * time.Hour)
			if want := []time.Duration{start, start + time.Hour}; fmt.Sprint(woke) != fmt.Sprint(want) {
				t.Errorf("next process woke at %v, want %v", woke, want)
			}
			if env.Live() != 0 {
				t.Errorf("Live() = %d, want 0", env.Live())
			}
		})
	}
}

// Unpark of a process that is neither inside a run nor suspended
// panics, naming the process: one that finished normally (its Proc is
// about to run another process), one resting and one not yet started.
func TestStaleUnparkPanics(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	wantPanic := func(p *Proc, want string) {
		t.Helper()
		defer func() {
			if s, _ := recover().(string); !strings.Contains(s, want) {
				t.Errorf("Unpark panicked with %q, want it to mention %q", s, want)
			}
		}()
		p.Unpark()
	}
	finished := env.GoStep("finished", func(*Proc) {})
	resting := env.GoStep("resting", func(p *Proc) { p.Rest(time.Hour) })
	env.Run(time.Second)
	wantPanic(finished, `process "finished" after it finished`)
	wantPanic(resting, `process "resting", which is neither parked nor suspended`)
	wantPanic(env.GoStep("unstarted", func(*Proc) {}), `process "unstarted", which is neither parked nor suspended`)
}

// Shutdown ends the live processes, and only those, while finished ones
// wait on the free list for reuse; then it hands all of them on. Each
// process that ran on a coroutine unwinds once: at its return, or at
// Shutdown.
func TestShutdownWithRetiredProcs(t *testing.T) {
	env := NewEnv()
	unwound := map[string]int{}
	onRunner := func(name string, d time.Duration) func(p *Proc) {
		return func(p *Proc) {
			if p.Bind() {
				defer func() { unwound[name]++ }()
				p.Sleep(d)
			}
		}
	}
	for i := 0; i < 3; i++ {
		env.GoStep("stepped", func(*Proc) {})
		env.GoStep("ran", onRunner("ran", time.Millisecond))
	}
	env.Run(time.Second)
	env.GoStep("resting", func(p *Proc) { p.Rest(time.Hour) })
	env.GoStep("sleeping", onRunner("sleeping", time.Hour))
	env.Run(2 * time.Second)
	if env.Live() != 2 || len(env.procs) != 4 {
		t.Fatalf("Live() = %d with %d processes on the free list before Shutdown, want 2 and 4", env.Live(), len(env.procs))
	}
	env.Shutdown()
	if env.Live() != 0 {
		t.Errorf("Live() = %d after Shutdown, want 0", env.Live())
	}
	if env.procs != nil || env.slabs != nil {
		t.Errorf("the Env kept %d free and %d slabs of processes after Shutdown, want none: they go to the next Env", len(env.procs), len(env.slabs))
	}
	want := map[string]int{"ran": 3, "sleeping": 1}
	if fmt.Sprint(unwound) != fmt.Sprint(want) {
		t.Errorf("unwound %v, want %v", unwound, want)
	}
}
