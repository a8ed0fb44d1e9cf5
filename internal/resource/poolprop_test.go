package resource

import (
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/rng"
)

// TestPoolPropertyRandomized drives the pool through an adversarial random
// schedule — concurrent acquires (timed and untimed), releases, runtime
// resizes (including shrinks below the live occupancy), and leak faults —
// and checks the structural invariants the tier models rely on:
//
//  1. occupancy never exceeds the largest capacity ever configured, and
//     units are never minted from thin air;
//  2. grants to queued acquirers arrive in strict FIFO order (timed-out
//     waiters simply drop out of the order);
//  3. no waiter is stranded: once faults heal and holders release, every
//     queued process gets a unit and the pool drains to empty.
func TestPoolPropertyRandomized(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		runPoolProperty(t, seed)
	}
}

func runPoolProperty(t *testing.T, seed uint64) {
	const (
		workers  = 24
		initCap  = 6
		maxCap   = 12
		churnFor = 60 * time.Second
	)
	env := des.NewEnv()
	defer env.Shutdown()
	pool := NewPool(env, "prop", initCap)

	var (
		ticketSeq   int
		lastGranted = -1
		held        int

		failed bool
	)
	check := func(where string) {
		if failed {
			return
		}
		if in := pool.InUse(); in < 0 || in > maxCap {
			t.Errorf("seed %d: %s: occupancy %d outside [0,%d]", seed, where, in, maxCap)
			failed = true
		}
		if lk := pool.Leaked(); lk < 0 || lk > pool.InUse() {
			t.Errorf("seed %d: %s: leaked %d inconsistent with occupancy %d", seed, where, lk, pool.InUse())
			failed = true
		}
	}

	// Worker processes: acquire (randomly timed or untimed), hold, release.
	for w := 0; w < workers; w++ {
		r := rng.NewStream(seed, "worker")
		for i := 0; i < w; i++ {
			r.Uint64() // decorrelate workers sharing a label
		}
		env.Go("worker", func(p *des.Proc) {
			for env.Now() < churnFor {
				p.Sleep(time.Duration(r.Exp(float64(5 * time.Millisecond))))
				var timeout time.Duration
				if r.Float64() < 0.5 {
					timeout = time.Duration(r.Exp(float64(20 * time.Millisecond)))
				}
				ticket := ticketSeq
				ticketSeq++
				ok, _ := acquireTimeout(p, pool, timeout)
				if !ok {
					continue
				}
				// FIFO: successful grants must arrive in ticket order;
				// a younger acquirer can never overtake an older one
				// (immediate grants only happen with an empty queue).
				if ticket <= lastGranted {
					t.Errorf("seed %d: ticket %d granted after %d (FIFO violation)", seed, ticket, lastGranted)
					failed = true
				}
				lastGranted = ticket
				held++
				check("post-acquire")
				p.Sleep(time.Duration(r.Exp(float64(10 * time.Millisecond))))
				held--
				pool.Release()
				check("post-release")
			}
		})
	}

	// Chaos process: resize across the occupancy, leak and heal units.
	chaos := rng.NewStream(seed, "chaos")
	env.Go("chaos", func(p *des.Proc) {
		for env.Now() < churnFor {
			p.Sleep(time.Duration(chaos.Exp(float64(15 * time.Millisecond))))
			switch chaos.Intn(4) {
			case 0, 1:
				pool.Resize(1 + chaos.Intn(maxCap))
			case 2:
				pool.Leak(1 + chaos.Intn(3))
			case 3:
				pool.Restore(1 + chaos.Intn(3))
			}
			check("post-chaos")
		}
		// Heal everything so the drain phase cannot dead-lock on leaks.
		pool.Restore(1 << 20)
		pool.Resize(maxCap)
		check("post-heal")
	})

	env.Run(churnFor + 10*time.Second)

	if failed {
		return
	}
	// Drain: all workers have exited their loops and released; no waiter
	// may be stranded and no unit may remain checked out or leaked.
	if q := pool.Queued(); q != 0 {
		t.Errorf("seed %d: %d waiters stranded after drain", seed, q)
	}
	if held != 0 {
		t.Errorf("seed %d: %d holders never released", seed, held)
	}
	if in := pool.InUse(); in != 0 {
		t.Errorf("seed %d: occupancy %d after drain, want 0", seed, in)
	}
	if lk := pool.Leaked(); lk != 0 {
		t.Errorf("seed %d: %d units still leaked after heal", seed, lk)
	}
	st := pool.Stats()
	if st.Grants == 0 || st.Waited == 0 || st.Timeouts == 0 {
		t.Errorf("seed %d: schedule not adversarial enough: %+v", seed, st)
	}
}
