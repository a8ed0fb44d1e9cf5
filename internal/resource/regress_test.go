package resource

import (
	"math"
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
)

// A near-zero speed with work outstanding used to overflow the completion
// delay (remain/rate in nanoseconds exceeding int64), scheduling a negative
// event time and panicking the scheduler. The delay now saturates at the
// end of representable time instead.
func TestCPURescheduleOverflowClamps(t *testing.T) {
	env := des.NewEnv()
	cpu := NewCPU(env, "cpu", 1)
	env.Go("job", func(p *des.Proc) {
		use(p, cpu, time.Hour)
	})
	env.Run(time.Millisecond) // job admitted, barely progressed
	// ~3600s of work at 1e-15 speed: remain/rate ≈ 3.6e21 s, far past
	// int64 nanoseconds. Must not panic, and the completion stays armed at
	// the clamp instead of firing at a wrapped-negative time.
	cpu.SetSpeed(1e-15)
	env.Run(time.Second)
	if got := len(cpu.jobs); got != 1 {
		t.Fatalf("Active() = %d after clamped reschedule, want 1", got)
	}
	// Denormal rate underflowing to +Inf delay takes the same clamp.
	cpu.SetSpeed(math.SmallestNonzeroFloat64)
	env.Run(2 * time.Second)
	if got := len(cpu.jobs); got != 1 {
		t.Fatalf("Active() = %d after denormal-speed reschedule, want 1", got)
	}
	// Restoring full speed lets the job finish normally.
	cpu.SetSpeed(1)
	env.Run(2 * time.Hour)
	if got := len(cpu.jobs); got != 0 {
		t.Errorf("Active() = %d after restoring speed, want 0", got)
	}
}

// Virtual-time rebasing must be invisible: a job mix straddling many rebase
// points completes the same total work.
func TestCPURebaseConservesWork(t *testing.T) {
	env := des.NewEnv()
	cpu := NewCPU(env, "cpu", 1)
	const jobs = 50
	work := 30000 * time.Second // jobs*work >> vRebase seconds of service
	done := 0
	for i := 0; i < jobs; i++ {
		env.Go("job", func(p *des.Proc) {
			use(p, cpu, work)
			done++
		})
	}
	env.Run(time.Duration(jobs) * work * 2)
	if done != jobs {
		t.Fatalf("completed %d jobs, want %d", done, jobs)
	}
	wantBusy := (time.Duration(jobs) * work).Seconds()
	if got := cpu.BusyIntegral(); math.Abs(got-wantBusy) > 1e-3*wantBusy {
		t.Errorf("BusyIntegral() = %g core-seconds, want ~%g", got, wantBusy)
	}
}

// Occupancy and saturation accounting across an over-full interval: a shrink
// below the current occupancy leaves inUse > capacity while holders drain.
// OccTime must keep indexing by true occupancy (entries above the new
// capacity retained), Full/Saturated must treat over-full as saturated, and
// ResetStats taken mid-over-full must restart cleanly from the over-full
// state.
func TestPoolOverfullStatsAndReset(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "pool", 4)
	// Holders acquire and park forever; the test returns their units
	// directly via Release between Run horizons.
	for i := 0; i < 4; i++ {
		env.Go("holder", func(p *des.Proc) {
			acquire(p, pl)
			p.Park()
		})
	}
	env.Run(time.Second) // t=1s: occupancy 4/4 for ~1s... (grants at t=0)
	pl.ResetStats()      // measure from t=1s

	pl.Resize(2) // over-full: inUse=4 > capacity=2
	env.Run(3 * time.Second)

	st := pl.Stats() // 2s interval, entirely at occupancy 4, capacity 2
	if st.Capacity != 2 {
		t.Fatalf("Capacity = %d, want 2", st.Capacity)
	}
	if len(st.OccTime) != 5 {
		t.Fatalf("len(OccTime) = %d, want 5 (entries above capacity retained)", len(st.OccTime))
	}
	if st.OccTime[4] != 2*time.Second {
		t.Errorf("OccTime[4] = %v, want 2s (over-full time indexed by true occupancy)", st.OccTime[4])
	}
	if math.Abs(st.Full-1) > 1e-9 {
		t.Errorf("Full = %g while inUse > capacity, want 1", st.Full)
	}
	if st.Saturated != 0 {
		t.Errorf("Saturated = %g with no waiters, want 0", st.Saturated)
	}
	if math.Abs(st.Utilization-2) > 1e-9 {
		t.Errorf("Utilization = %g (4 in use / capacity 2), want 2", st.Utilization)
	}

	// A waiter arriving while over-full makes the interval saturated.
	granted := false
	env.Go("waiter", func(p *des.Proc) {
		acquire(p, pl)
		granted = true
	})
	env.Run(4 * time.Second) // 1s queued, still over-full
	if granted {
		t.Fatal("waiter granted while pool over-full")
	}

	// ResetStats mid-over-full with a queued waiter: the new interval must
	// start at the current (over-full, saturated) state.
	pl.ResetStats()
	env.Run(5 * time.Second)
	st = pl.Stats()
	if st.OccTime[4] != time.Second {
		t.Errorf("OccTime[4] = %v after mid-over-full reset, want 1s", st.OccTime[4])
	}
	if math.Abs(st.Saturated-1) > 1e-9 {
		t.Errorf("Saturated = %g with waiter queued over-full interval, want 1", st.Saturated)
	}
	if st.MaxQueue != 1 {
		t.Errorf("MaxQueue = %d after reset with a queued waiter, want 1", st.MaxQueue)
	}

	// Drain: two releases bring occupancy to capacity; the waiter still
	// queues (no free unit), the third release transfers its unit.
	pl.Release()
	pl.Release()
	env.Run(6 * time.Second)
	if granted {
		t.Fatal("waiter granted during over-full drain")
	}
	if pl.InUse() != 2 || pl.Queued() != 1 {
		t.Fatalf("InUse=%d Queued=%d after drain, want 2/1", pl.InUse(), pl.Queued())
	}
	pl.Release()
	env.Run(7 * time.Second)
	if !granted {
		t.Fatal("waiter not granted once occupancy reached capacity")
	}

	// Occupancy timeline must account every instant exactly once.
	st = pl.Stats()
	var sum time.Duration
	for _, d := range st.OccTime {
		sum += d
	}
	if elapsed := 3 * time.Second; sum != elapsed {
		t.Errorf("sum(OccTime) = %v, want %v (every instant at exactly one occupancy)", sum, elapsed)
	}
}

// Waiter records are pooled; a timeout waiter whose record is later reused
// must not leak its old timer into the new acquisition.
func TestPoolWaiterReuseAfterTimeout(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "pool", 1)
	env.Go("holder", func(p *des.Proc) {
		acquire(p, pl)
		p.Sleep(10 * time.Second)
		pl.Release()
	})
	timedOut := false
	env.Go("impatient", func(p *des.Proc) {
		p.Sleep(time.Second)
		ok, wait := acquireTimeout(p, pl, 2*time.Second)
		if ok {
			t.Error("impatient acquisition succeeded under a held pool")
		}
		if wait != 2*time.Second {
			t.Errorf("timed-out wait = %v, want 2s", wait)
		}
		timedOut = true
	})
	// Reuses the impatient waiter's record (free list is LIFO); its grant
	// must come from the release at t=10s, not the stale timeout.
	granted := false
	env.Go("patient", func(p *des.Proc) {
		p.Sleep(4 * time.Second)
		ok, _ := acquireTimeout(p, pl, 20*time.Second)
		granted = ok
	})
	env.Run(30 * time.Second)
	if !timedOut {
		t.Fatal("timeout did not fire")
	}
	if !granted {
		t.Fatal("patient waiter not granted after release")
	}
	st := pl.Stats()
	if st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
	if st.Grants != 2 {
		t.Errorf("Grants = %d, want 2", st.Grants)
	}
}

// Only a timed wait needs a timer: untimed waits, parked or suspended,
// leave every waiter record without one, queued and recycled alike.
func TestPoolUntimedWaitsArmNoTimer(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	pl := NewPool(env, "pool", 1)
	env.Go("holder", func(p *des.Proc) {
		acquire(p, pl)
		p.Sleep(time.Second)
		pl.Release()
	})
	const n = 1000
	for i := 0; i < n; i++ {
		runs := 0
		env.GoStep("waiter", func(p *des.Proc) {
			if !p.Bind() {
				return
			}
			runs++
			switch {
			case i%2 == 0:
				acquire(p, pl)
			case runs == 1:
				if !pl.AcquireOrSuspend(p, 0) {
					return
				}
			default:
				pl.Resolve(p)
			}
			pl.Release()
		})
	}
	countTimers := func(ws []*waiter) (k int) {
		for _, w := range ws {
			if w.timer != nil {
				k++
			}
		}
		return k
	}
	env.Run(time.Millisecond)
	if q := pl.Queued(); q != n {
		t.Fatalf("Queued() = %d, want %d", q, n)
	}
	if k := countTimers(pl.waiters[pl.wHead:]); k != 0 {
		t.Errorf("%d of %d queued untimed waiters hold a timer, want none", k, n)
	}
	env.Run(time.Minute)
	if st := pl.Stats(); st.Grants != n+1 || len(pl.freeW) == 0 {
		t.Fatalf("%d grants, %d recycled records; want %d grants", st.Grants, len(pl.freeW), n+1)
	}
	if k := countTimers(pl.freeW); k != 0 {
		t.Errorf("%d of %d recycled records hold a timer, want none", k, len(pl.freeW))
	}
}

// A waiter record first used for an untimed wait gets its timer when a
// later wait reuses it with a timeout, and that wait times out on time.
func TestPoolWaiterTimerOnFirstTimedReuse(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	pl := NewPool(env, "pool", 1)
	env.Go("holder", func(p *des.Proc) {
		acquire(p, pl)
		p.Sleep(time.Second)
		pl.Release()
		p.Sleep(time.Second) // the untimed waiter holds [1s, 1s]
		acquire(p, pl)
		p.Sleep(10 * time.Second)
		pl.Release()
	})
	env.Go("untimed", func(p *des.Proc) {
		p.Sleep(500 * time.Millisecond)
		acquire(p, pl)
		pl.Release()
	})
	timedOut := time.Duration(-1)
	env.Go("timed", func(p *des.Proc) {
		p.Sleep(3 * time.Second)
		if len(pl.freeW) != 1 || pl.freeW[0].timer != nil {
			t.Fatalf("want one recycled record without a timer before the timed wait")
		}
		w := pl.freeW[0]
		ok, wait := acquireTimeout(p, pl, 2*time.Second)
		if ok || wait != 2*time.Second {
			t.Errorf("AcquireTimeout = %v after %v, want a timeout after 2s", ok, wait)
		}
		if len(pl.freeW) != 1 || pl.freeW[0] != w || w.timer == nil {
			t.Error("the timed wait did not reuse the untimed waiter's record with a new timer")
		}
		timedOut = p.Now()
	})
	env.Run(time.Minute)
	if timedOut != 5*time.Second {
		t.Errorf("timed wait ended at %v, want 5s", timedOut)
	}
	if st := pl.Stats(); st.Timeouts != 1 || st.Grants != 3 {
		t.Errorf("Timeouts = %d, Grants = %d; want 1 and 3", st.Timeouts, st.Grants)
	}
}

// The FIFO queue is a sliding window; deep queues with interleaved timeouts
// must grant strictly in arrival order at O(1) amortized per grant.
func TestPoolDeepQueueFIFOWithTimeouts(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "pool", 1)
	env.Go("holder", func(p *des.Proc) {
		acquire(p, pl)
		p.Sleep(100 * time.Second)
		for i := 0; i < 200; i++ {
			p.Sleep(time.Second)
			pl.Release()
			acquire(p, pl)
		}
		pl.Release()
	})
	const n = 300
	var order []int
	for i := 0; i < n; i++ {
		i := i
		env.Go("waiter", func(p *des.Proc) {
			p.Sleep(time.Duration(i+1) * time.Millisecond)
			var ok bool
			if i%3 == 0 { // every third waiter gives up before any grant
				ok, _ = acquireTimeout(p, pl, 50*time.Second)
			} else {
				ok, _ = acquireTimeout(p, pl, 1000*time.Second)
			}
			if ok {
				order = append(order, i)
				pl.Release()
			}
		})
	}
	env.Run(500 * time.Second)
	want := 0
	for _, got := range order {
		for want%3 == 0 {
			want++ // timed out before the drain reached it
		}
		if got != want {
			t.Fatalf("grant order %v: got %d, want %d (FIFO)", order[:10], got, want)
		}
		want++
	}
	if len(order) != n-(n+2)/3 {
		t.Errorf("granted %d waiters, want %d", len(order), n-(n+2)/3)
	}
}
