package resource

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/rng"
)

// acquireTimeout takes a unit of pl for p on its coroutine, parked while it
// waits in the pool's queue, giving up after timeout if positive. It
// reports whether a unit was obtained and the time spent waiting.
func acquireTimeout(p *des.Proc, pl *Pool, timeout time.Duration) (bool, time.Duration) {
	if pl.TryAcquire() {
		return true, 0
	}
	pl.enqueue(p, timeout)
	p.Park()
	return pl.Resolve(p)
}

// acquire takes a unit of pl for p on its coroutine, parked until the grant,
// and returns the time spent waiting.
func acquire(p *des.Proc, pl *Pool) time.Duration {
	_, wait := acquireTimeout(p, pl, 0)
	return wait
}

// AcquireOrSuspend and Resolve are acquireTimeout without the stack: the
// same seeded schedule of timed and untimed acquisitions, holds, resizes
// and leaks, run once with waiters that park and once with waiters that
// suspend, grants the same units at the same instants, times out the same
// waits, fires the same number of events and ends with the same statistics.
func TestAcquireOrSuspendMatchesAcquireTimeout(t *testing.T) {
	run := func(suspend bool) string {
		env := des.NewEnv()
		defer env.Shutdown()
		pl := NewPool(env, "pool", 3)
		r := rng.New(11)
		var log []string
		for i := 0; i < 40; i++ {
			arrive := time.Duration(r.Intn(2000)) * time.Millisecond
			hold := time.Duration(1+r.Intn(400)) * time.Millisecond
			timeout := time.Duration(r.Intn(3)) * 300 * time.Millisecond
			outcome := func(p *des.Proc, ok bool, wait time.Duration) {
				log = append(log, fmt.Sprintf("%d@%v ok=%v wait=%v", i, p.Now(), ok, wait))
				if ok {
					p.Sleep(hold)
					pl.Release()
				}
			}
			runs := 0
			env.Go("client", func(p *des.Proc) {
				runs++
				switch {
				case runs == 1:
					p.Rest(arrive)
				case !suspend:
					ok, wait := acquireTimeout(p, pl, timeout)
					outcome(p, ok, wait)
				case runs == 2:
					if pl.AcquireOrSuspend(p, timeout) {
						outcome(p, true, 0)
					}
				default:
					ok, wait := pl.Resolve(p)
					outcome(p, ok, wait)
				}
			})
		}
		env.At(700*time.Millisecond, func() { pl.Resize(1) })
		env.At(900*time.Millisecond, func() { pl.Leak(1) })
		env.At(1500*time.Millisecond, func() { pl.Restore(1); pl.Resize(4) })
		n := env.Run(time.Minute)
		if err := pl.AuditQuiescent(); err != nil {
			t.Error(err)
		}
		return fmt.Sprintf("events=%d %+v\n%s", n, pl.Stats(), strings.Join(log, "\n"))
	}
	parked, suspended := run(false), run(true)
	if parked != suspended {
		t.Errorf("suspending waiters:\n%s\nparking waiters:\n%s", suspended, parked)
	}
	if !strings.Contains(parked, "ok=false") {
		t.Error("no acquisition timed out; the schedule misses the timeout path")
	}
}

// A grant and a timeout due at the same instant resolve a suspended
// acquisition once, whichever fires first: the waiter runs again exactly
// once, and the pool books exactly one outcome.
func TestSuspendedGrantAndTimeoutSameInstant(t *testing.T) {
	for _, releaseFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("releaseFirst=%v", releaseFirst), func(t *testing.T) {
			env := des.NewEnv()
			defer env.Shutdown()
			pl := NewPool(env, "pool", 1)
			pl.TryAcquire() // held until the release below
			release := func() { pl.Release() }
			if releaseFirst {
				env.At(time.Second, release)
			}
			runs := 0
			var granted bool
			env.Go("waiter", func(p *des.Proc) {
				runs++
				if runs == 1 {
					if pl.AcquireOrSuspend(p, time.Second) {
						t.Error("acquired a held unit")
					}
					return
				}
				var wait time.Duration
				granted, wait = pl.Resolve(p)
				if wait != time.Second {
					t.Errorf("waited %v, want 1s", wait)
				}
				if granted {
					pl.Release()
				}
			})
			if !releaseFirst {
				env.Run(0) // the waiter queues and arms its timeout first
				env.At(time.Second, release)
			}
			env.Run(time.Minute)
			if runs != 2 {
				t.Errorf("waiter ran %d times, want 2", runs)
			}
			if granted != releaseFirst {
				t.Errorf("granted = %v, want %v", granted, releaseFirst)
			}
			st := pl.Stats()
			want := uint64(0)
			if releaseFirst {
				want = 1
			}
			if st.Waited != want || st.Timeouts != 1-want {
				t.Errorf("waited %d, timeouts %d; want %d and %d", st.Waited, st.Timeouts, want, 1-want)
			}
			if err := pl.AuditQuiescent(); err != nil {
				t.Error(err)
			}
		})
	}
}

// Resolve without a resolved acquisition is a caller bug, not a grant.
func TestResolveWithoutAcquisitionPanics(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	pl := NewPool(env, "pool", 1)
	env.Go("stray", func(p *des.Proc) { pl.Resolve(p) })
	defer func() {
		if _, ok := recover().(*des.ProcPanic); !ok {
			t.Error("Resolve with nothing to resolve did not panic")
		}
	}()
	env.Run(time.Second)
}
