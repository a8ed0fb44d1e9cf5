package des

import (
	"strings"
	"testing"
	"time"
)

func TestProcPanicPropagatesToRunCaller(t *testing.T) {
	env := NewEnv()
	env.Go("bystander", func(p *Proc) { p.Sleep(10 * time.Second) })
	env.Go("bomb", func(p *Proc) {
		p.Sleep(time.Second)
		panic("kaboom")
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
	if pp.Proc != "bomb" {
		t.Errorf("ProcPanic.Proc = %q, want bomb", pp.Proc)
	}
	if pp.Value != "kaboom" {
		t.Errorf("ProcPanic.Value = %v, want kaboom", pp.Value)
	}
	if len(pp.Stack) == 0 {
		t.Error("ProcPanic.Stack is empty")
	}
	if !strings.Contains(pp.Error(), "kaboom") {
		t.Errorf("Error() = %q, want it to mention the panic value", pp.Error())
	}
	// The panicking proc unregistered itself; the bystander can still be
	// unwound by Shutdown.
	env.Shutdown()
	if env.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", env.Live())
	}
}

// A process that returns after a wake runs its deferred calls newest
// first before Run returns.
func TestDeferRunsLIFOOnNormalExit(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("worker", func(p *Proc) {
		defer func() { order = append(order, "first-registered") }()
		defer func() { order = append(order, "second-registered") }()
		p.Sleep(time.Second)
	})
	env.Run(2 * time.Second)
	if len(order) != 2 || order[0] != "second-registered" || order[1] != "first-registered" || env.Live() != 0 {
		t.Fatalf("deferred call order %v, Live() = %d; want LIFO and 0", order, env.Live())
	}
}

// A process killed inside a run unwinds its stack: its deferred calls run
// before Shutdown returns, and Live() reaches 0.
func TestDeferRunsOnShutdownUnwind(t *testing.T) {
	env := NewEnv()
	cleaned := make(chan string, 2)
	env.Go("parked", func(p *Proc) {
		defer func() { cleaned <- "parked" }()
		p.Park()
	})
	env.Go("sleeping", func(p *Proc) {
		defer func() { cleaned <- "sleeping" }()
		p.Sleep(time.Hour)
	})
	env.Run(time.Second)
	env.Shutdown()
	if len(cleaned) != 2 || env.Live() != 0 {
		t.Fatalf("%d deferred calls ran and Live() = %d after Shutdown, want 2 and 0", len(cleaned), env.Live())
	}
}

// A process that panics unwinds its stack, deferred calls included, before
// the scheduler captures the panic.
func TestDeferRunsOnPanicUnwind(t *testing.T) {
	env := NewEnv()
	cleaned := false
	env.Go("bomb", func(p *Proc) {
		defer func() { cleaned = true }()
		panic("boom")
	})
	func() {
		defer func() { recover() }()
		env.Run(time.Second)
	}()
	if !cleaned || env.Live() != 0 {
		t.Errorf("deferred call ran: %v, Live() = %d; want true and 0 after the panic", cleaned, env.Live())
	}
}

// Run polls the interrupt flag every interruptStride events (keeping the
// atomic load off the hot path), so a request raised mid-run is observed at
// the next poll boundary: at most interruptStride further events fire, and
// the rest stay queued.
func TestInterruptStopsRunWithinStride(t *testing.T) {
	env := NewEnv()
	const total = 10 * interruptStride
	fired := 0
	for i := 1; i <= total; i++ {
		i := i
		env.At(time.Duration(i)*time.Second, func() {
			fired++
			if i == 3 {
				env.Interrupt()
			}
		})
	}
	env.Run(time.Hour)
	if fired < 3 || fired > 3+interruptStride {
		t.Fatalf("fired %d events, want within one stride (%d) of the interrupt at 3", fired, interruptStride)
	}
	if !env.Interrupted() {
		t.Error("Interrupted() = false after Interrupt")
	}
	if env.Pending() != total-fired {
		t.Errorf("Pending() = %d after early return, want %d still queued", env.Pending(), total-fired)
	}
	if n := env.Run(time.Hour); n != 0 {
		t.Errorf("interrupted Run processed %d further events", n)
	}
}

func TestInterruptBeforeRun(t *testing.T) {
	env := NewEnv()
	fired := false
	env.At(time.Second, func() { fired = true })
	env.Interrupt()
	env.Run(time.Hour)
	if fired {
		t.Error("interrupted Run processed an event")
	}
}
