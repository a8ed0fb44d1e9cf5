// Per-trial fault containment: panic recovery, the horizon audit and the
// wall-clock watchdog. A panicking simulation or a trial whose books do
// not balance — a model bug at one grid point — must not kill the sweep's
// worker pool or lose the campaign's completed trials, and a wedged DES
// run must not hang the process forever. All degrade into typed per-trial
// errors the sweeps turn into error rows.

package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"github.com/softres/ntier/internal/des"
)

// PanicError is a panicking trial converted into an error. The panic —
// typically a *des.ProcPanic re-raised by the scheduler, or a testbed
// build panic — is captured with its stack so the failure is reportable
// as a per-trial error row. Panics are deterministic functions of the
// configuration, so journals record them and resume does not retry. A
// failed horizon audit takes the same path, with an *AuditError as Value
// and no stack; a journal restores either Value as its text.
type PanicError struct {
	Value any    // the original panic value
	Stack string // goroutine stack captured at the panic site
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("experiment: trial panicked: %v", e.Value)
}

// newPanicError wraps a recovered value, preferring the process-side
// stack a *des.ProcPanic carries over this (scheduler-side) goroutine's.
func newPanicError(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	if pp, ok := r.(*des.ProcPanic); ok {
		return &PanicError{
			Value: pp.Value,
			Stack: fmt.Sprintf("process %q:\n%s", pp.Proc, pp.Stack),
		}
	}
	return &PanicError{Value: r, Stack: string(debug.Stack())}
}

// AuditError is a trial whose books did not balance at its horizon: the
// testbed's audit, its workload's request conservation included, found
// Violations. The simulation is deterministic, so run returns it as a
// *PanicError's value, which campaigns journal and resume replays.
type AuditError struct {
	Violations []error
}

func (e *AuditError) Error() string {
	msgs := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		msgs[i] = v.Error()
	}
	return "experiment: audit at the horizon: " + strings.Join(msgs, "; ")
}

// TimeoutError reports a trial whose wall-clock watchdog fired: the DES
// run was interrupted with the simulated clock at SimTime and the testbed
// shut down. Timeouts are environmental (load, scheduling), so they are
// not journaled — a resumed campaign retries the trial.
type TimeoutError struct {
	Timeout time.Duration // the RunConfig.TrialTimeout that expired
	SimTime time.Duration // simulated clock when the watchdog fired
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("experiment: trial exceeded the %v wall-clock watchdog (simulated clock at %v)", e.Timeout, e.SimTime)
}

// IsTrialFailure reports whether err is a contained per-trial failure —
// a panic, a failed horizon audit or a watchdog timeout — that sweeps
// convert into an error row and keep going, as opposed to an error that
// aborts the campaign (cancellation, unbuildable configuration, journal
// I/O).
func IsTrialFailure(err error) bool {
	var pe *PanicError
	if errors.As(err, &pe) {
		return true
	}
	var te *TimeoutError
	return errors.As(err, &te)
}

// watchdog interrupts env's run when ctx is done or the wall-clock
// timeout (0 = none) expires; env.Interrupt is the only cross-thread call
// made. The returned stop disarms it and waits for its goroutine, so no
// Interrupt can land on a later trial's Env.
func watchdog(ctx context.Context, timeout time.Duration, env *des.Env) (stop func()) {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	if ctxDone == nil && timeout <= 0 {
		return func() {}
	}
	var timerC <-chan time.Time
	var timer *time.Timer
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		timerC = timer.C
	}
	stopc, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		if timer != nil {
			defer timer.Stop()
		}
		select {
		case <-stopc:
		case <-ctxDone:
			env.Interrupt()
		case <-timerC:
			env.Interrupt()
		}
	}()
	return func() {
		close(stopc)
		<-done
	}
}

// aborted classifies a run of env that watchdog(ctx, timeout, env)
// guarded: the context's own error when it was canceled, a *TimeoutError
// when the watchdog expired, nil when the run completed undisturbed.
func aborted(ctx context.Context, timeout time.Duration, env *des.Env) error {
	if !env.Interrupted() {
		return nil
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	return &TimeoutError{Timeout: timeout, SimTime: env.Now()}
}

// ctxErr returns the context's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
