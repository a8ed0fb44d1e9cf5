package des

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// A process that finishes normally, in a step or on a runner, is reused by
// the next GoStep, and starts clean: its new name, no data, none of the
// previous life's cleanups, and Live() counts it once.
func TestReusedProcStartsClean(t *testing.T) {
	for _, onRunner := range []bool{false, true} {
		t.Run(fmt.Sprintf("runner=%v", onRunner), func(t *testing.T) {
			env := NewEnv()
			defer env.Shutdown()
			cleaned := map[string]int{}
			first := env.GoStep("first", func(p *Proc) {
				if onRunner && !p.Bind() {
					return
				}
				p.SetData("first's data")
				p.Defer(func() { cleaned["first"]++ })
			})
			env.Run(time.Second)
			if env.Live() != 0 || cleaned["first"] != 1 {
				t.Fatalf("after the first life: Live() = %d, %d cleanups; want 0 and 1", env.Live(), cleaned["first"])
			}
			var name string
			var data any
			second := env.GoStep("second", func(p *Proc) {
				name, data = p.Name(), p.Data()
				p.Defer(func() { cleaned["second"]++ })
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
			if cleaned["first"] != 1 || cleaned["second"] != 1 || env.Live() != 0 {
				t.Errorf("after the second life: cleanups %v, Live() = %d; want one each and 0", cleaned, env.Live())
			}
		})
	}
}

// A process that panics after Rest, in a step or on a runner, is not
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
// wait on the free list for reuse; then it hands all of them on.
func TestShutdownWithRetiredProcs(t *testing.T) {
	env := NewEnv()
	cleaned := map[string]int{}
	start := func(name string, fn func(p *Proc)) {
		env.GoStep(name, fn).Defer(func() { cleaned[name]++ })
	}
	for i := 0; i < 3; i++ {
		start("stepped", func(*Proc) {})
		start("ran", func(p *Proc) {
			if p.Bind() {
				p.Sleep(time.Millisecond)
			}
		})
	}
	env.Run(time.Second)
	start("resting", func(p *Proc) { p.Rest(time.Hour) })
	start("sleeping", func(p *Proc) {
		if p.Bind() {
			p.Sleep(time.Hour)
		}
	})
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
	want := map[string]int{"stepped": 3, "ran": 3, "resting": 1, "sleeping": 1}
	if fmt.Sprint(cleaned) != fmt.Sprint(want) {
		t.Errorf("cleanups %v, want %v", cleaned, want)
	}
}
