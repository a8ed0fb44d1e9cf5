package des

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// stepLoop is a process body that takes the same path under Go and GoStep:
// each dispatch logs itself, rests twice, then binds, sleeps, suspends
// once and is unparked, and finishes on its last run. Under GoStep every
// dispatch before the Bind is a step.
func stepLoop(log *[]string, name string) func(p *Proc) {
	runs := 0
	return func(p *Proc) {
		*log = append(*log, name+"@"+p.Now().String())
		switch {
		case runs < 2:
			runs++
			p.Rest(time.Second)
		case runs == 2:
			if !p.Bind() {
				return
			}
			runs++
			p.Sleep(time.Second)
			*log = append(*log, name+" slept@"+p.Now().String())
			p.Suspend()
			p.env.At(p.Now()+time.Second, p.Unpark)
		}
	}
}

// A stepping process takes every wake at the place in the event order the
// same process under Go takes it: the two logs, interleaved with a
// bystander ticking at the same instants, are identical except that the
// stepping process's dispatch before its Bind logs twice (its step, then
// fn again on the coroutine).
func TestStepsWakeLikeRuns(t *testing.T) {
	trace := func(step bool) []string {
		env := NewEnv()
		defer env.Shutdown()
		var log []string
		fn := stepLoop(&log, "proc")
		if step {
			env.GoStep("proc", fn)
		} else {
			env.Go("proc", fn)
		}
		for i := 0; i < 6; i++ {
			env.At(time.Duration(i)*time.Second, func() { log = append(log, "tick@"+env.Now().String()) })
		}
		env.Run(10 * time.Second)
		if env.Live() != 0 {
			t.Errorf("step=%v: Live() = %d after the last run, want 0", step, env.Live())
		}
		return log
	}
	runs, steps := trace(false), trace(true)
	want := strings.Join(runs, " ")
	want = strings.Replace(want, "proc@2s", "proc@2s proc@2s", 1)
	if got := strings.Join(steps, " "); got != want {
		t.Errorf("stepping order\n  %s\nwant\n  %s", got, want)
	}
}

// Steps are counted apart from runs: the two rests of stepLoop and its
// final dispatch after the Unpark are steps; the Bind dispatch starts the
// one run on a coroutine.
func TestStepCounters(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	var log []string
	env.GoStep("proc", stepLoop(&log, "proc"))
	env.Run(time.Minute)
	want := Counters{Binds: 1, Suspensions: 1, Steps: 3}
	if got := env.Counters(); got != want {
		t.Errorf("Counters() = %+v, want %+v", got, want)
	}
}

// A process that only rests and returns is served by steps alone: a
// thousand of them, waking a hundred times each, never bind a coroutine.
func TestRestingStepsBindNoRunner(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	const procs, wakes = 1000, 100
	done := 0
	for i := 0; i < procs; i++ {
		runs := 0
		env.GoStep("user", func(p *Proc) {
			if runs++; runs <= wakes {
				p.Rest(time.Duration(1+i%13) * time.Millisecond)
				return
			}
			done++
		})
	}
	env.Run(time.Hour)
	c := env.Counters()
	if done != procs || env.Live() != 0 {
		t.Fatalf("%d processes done, Live() = %d; want %d and 0", done, env.Live(), procs)
	}
	if c.Binds != 0 {
		t.Errorf("steps bound coroutines: %+v", c)
	}
	if c.Steps != procs*(wakes+1) {
		t.Errorf("%d steps, want %d", c.Steps, procs*(wakes+1))
	}
}

// A process that rests on its coroutine ends the coroutine, and its next
// wake is a step like any other, at the same (at, seq) a Rest in a step
// would take: a GoStep fn that does not ask for a coroutine then finishes
// in the step, and a Go fn is given a fresh coroutine by its step.
func TestRestOnRunnerWakesAsStep(t *testing.T) {
	var log []string
	env := NewEnv()
	defer env.Shutdown()
	where := func(p *Proc) string {
		if p.co == nil {
			return " in a step"
		}
		return " on a coroutine"
	}
	body := func(name string, bind bool) func(p *Proc) {
		rested := false
		return func(p *Proc) {
			if rested {
				log = append(log, name+"@"+p.Now().String()+where(p))
				return
			}
			if bind && !p.Bind() {
				return
			}
			rested = true
			p.Rest(time.Second)
			log = append(log, name+" rested"+where(p))
		}
	}
	env.Go("go", body("go", false))
	env.GoStep("step", body("step", false))
	env.GoStep("bound", body("bound", true))
	env.Run(time.Minute)
	want := "go rested on a coroutine, step rested in a step, bound rested on a coroutine, " +
		"go@1s on a coroutine, step@1s in a step, bound@1s in a step"
	if got := strings.Join(log, ", "); got != want {
		t.Errorf("log %q, want %q", got, want)
	}
	want2 := Counters{Binds: 3, Steps: 3}
	if c := env.Counters(); c != want2 {
		t.Errorf("Counters() = %+v, want %+v", c, want2)
	}
	if env.Live() != 0 {
		t.Errorf("Live() = %d, want 0", env.Live())
	}
}

// A panic in a step leaves Run as a *ProcPanic naming the process, with
// the panic value and the stack at the panic site, and finishes the
// process: its pending wake is ignored.
func TestStepPanicSurfacesAsProcPanic(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	runs := 0
	env.GoStep("stepper", func(p *Proc) {
		if runs++; runs == 1 {
			p.Rest(time.Second)
			return
		}
		p.Rest(time.Second) // a wake the panic leaves behind
		panicInStep()
	})
	var pp *ProcPanic
	func() {
		defer func() {
			v := recover()
			err, _ := v.(error)
			if !errors.As(err, &pp) {
				t.Fatalf("Run panicked with %v, want a *ProcPanic", v)
			}
		}()
		env.Run(time.Minute)
	}()
	if pp.Proc != "stepper" || pp.Value != "step kaboom" {
		t.Errorf("ProcPanic{Proc: %q, Value: %v}, want stepper/step kaboom", pp.Proc, pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "panicInStep") {
		t.Errorf("stack does not reach the panic site:\n%s", pp.Stack)
	}
	if env.Live() != 0 {
		t.Errorf("Live() = %d after the panic, want 0", env.Live())
	}
	env.Run(time.Hour) // the rested wake finds the process finished
	if runs != 2 {
		t.Errorf("%d runs, want 2", runs)
	}
}

func panicInStep() { panic("step kaboom") }

// A step may suspend: the process then waits without a coroutine until an
// Unpark, and its wake is a step at the place in the event order a parked
// process's wake takes. Both logs, interleaved with a bystander's ticks at
// the same instants, read the same, and the stepping process never binds.
func TestSuspendInStepWakesLikePark(t *testing.T) {
	trace := func(step bool) ([]string, Counters) {
		env := NewEnv()
		defer env.Shutdown()
		var log []string
		var proc *Proc
		wakes := 0
		if step {
			proc = env.GoStep("proc", func(p *Proc) {
				log = append(log, "proc@"+p.Now().String())
				if wakes++; wakes <= 2 {
					p.Suspend()
				}
			})
		} else {
			proc = env.Go("proc", func(p *Proc) {
				for i := 0; i < 3; i++ {
					log = append(log, "proc@"+p.Now().String())
					if i < 2 {
						p.Park()
					}
				}
			})
		}
		for i := 1; i <= 2; i++ {
			at := time.Duration(i) * time.Second
			env.At(at, proc.Unpark)
			env.At(at, func() { log = append(log, "tick@"+env.Now().String()) })
		}
		env.Run(time.Minute)
		if env.Live() != 0 {
			t.Errorf("step=%v: Live() = %d, want 0", step, env.Live())
		}
		return log, env.Counters()
	}
	runs, _ := trace(false)
	steps, c := trace(true)
	if got, want := strings.Join(steps, " "), strings.Join(runs, " "); got != want {
		t.Errorf("stepping order\n  %s\nwant\n  %s", got, want)
	}
	if want := (Counters{Suspensions: 2, Steps: 3}); c != want {
		t.Errorf("Counters() = %+v, want %+v", c, want)
	}
}

// Blocking calls in a step, and a second run-ending call in one, panic
// with the misuse named; the panic leaves Run as a *ProcPanic. A step may
// suspend (TestSuspendInStepWakesLikePark), but not after it rested.
func TestStepMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(p *Proc)
		want string
	}{
		{"sleep", func(p *Proc) { p.Sleep(time.Second) }, "des: Sleep in a step"},
		{"park", func(p *Proc) { p.Park() }, "des: Park in a step"},
		{"suspend", func(p *Proc) { p.Rest(time.Second); p.Suspend() }, "des: Suspend after Rest in the same run"},
		{"rest twice", func(p *Proc) { p.Rest(time.Second); p.Rest(time.Second) }, "des: Rest twice in the same run"},
		{"bind after rest", func(p *Proc) { p.Rest(time.Second); p.Bind() }, "des: Bind after Rest in the same run"},
		{"rest after bind", func(p *Proc) { p.Bind(); p.Rest(time.Second) }, "des: Rest after Bind in the same run"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv()
			defer env.Shutdown()
			env.GoStep(tc.name, tc.fn)
			defer func() {
				pp, _ := recover().(*ProcPanic)
				if pp == nil || pp.Value != tc.want {
					t.Errorf("panic %v, want a ProcPanic of %q", pp, tc.want)
				}
			}()
			env.Run(time.Minute)
		})
	}
}

// Shutdown finishes every stepping process whatever it waits on — its
// start, a rested wake, a suspension begun on a coroutine, or a sleep inside
// a run, which unwinds — so Live() reaches 0.
func TestShutdownFinishesSteppingProcs(t *testing.T) {
	env := NewEnv()
	runs := map[string]int{}
	unwound := false
	env.GoStep("resting", func(p *Proc) {
		runs["resting"]++
		p.Rest(time.Hour)
	})
	env.GoStep("suspended", func(p *Proc) {
		runs["suspended"]++
		if p.Bind() {
			p.Suspend()
		}
	})
	env.GoStep("sleeping", func(p *Proc) {
		if p.Bind() {
			defer func() { unwound = true }()
			p.Sleep(time.Hour)
		}
	})
	env.Run(time.Second)
	env.GoStep("unstarted", func(p *Proc) { t.Error("an unstarted process ran") })
	if env.Live() != 4 {
		t.Fatalf("Live() = %d before Shutdown, want 4", env.Live())
	}
	env.Shutdown()
	if env.Live() != 0 {
		t.Errorf("Live() = %d after Shutdown, want 0", env.Live())
	}
	if !unwound {
		t.Error("the sleeping process did not unwind")
	}
	if runs["resting"] != 1 || runs["suspended"] != 2 {
		t.Errorf("runs %v, want resting 1 (its start) and suspended 2 (its step and its run)", runs)
	}
}
