package resource

import (
	"math"
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
)

func TestResizeGrowAdmitsWaiters(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 1)
	var grantTimes []time.Duration
	for i := 0; i < 3; i++ {
		env.Go("w", func(p *des.Proc) {
			acquire(p, pl)
			grantTimes = append(grantTimes, p.Now())
			p.Sleep(10 * time.Second)
			pl.Release()
		})
	}
	env.At(2*time.Second, func() { pl.Resize(3) })
	env.Run(time.Minute)
	if len(grantTimes) != 3 {
		t.Fatalf("granted %d, want 3", len(grantTimes))
	}
	// First grant immediately; the two queued waiters admitted at resize.
	if grantTimes[0] != 0 || grantTimes[1] != 2*time.Second || grantTimes[2] != 2*time.Second {
		t.Errorf("grant times %v", grantTimes)
	}
	env.Shutdown()
}

func TestResizeShrinkDrains(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 3)
	released := 0
	for i := 0; i < 3; i++ {
		i := i
		env.Go("w", func(p *des.Proc) {
			acquire(p, pl)
			p.Sleep(time.Duration(i+1) * time.Second)
			pl.Release()
			released++
		})
	}
	env.At(500*time.Millisecond, func() {
		pl.Resize(1)
		if pl.InUse() != 3 {
			t.Errorf("in-use %d right after shrink, want 3 (no revocation)", pl.InUse())
		}
	})
	// A late arrival must wait until occupancy drains below the new cap.
	var lateGrant time.Duration
	env.Go("late", func(p *des.Proc) {
		p.Sleep(600 * time.Millisecond)
		acquire(p, pl)
		lateGrant = p.Now()
		pl.Release()
	})
	env.Run(time.Minute)
	if released != 3 {
		t.Fatalf("released %d, want 3", released)
	}
	// Units release at 1s, 2s, 3s; capacity 1 means the late waiter is
	// admitted only when occupancy drops below 1, i.e. at t=3s.
	if lateGrant != 3*time.Second {
		t.Errorf("late grant at %v, want 3s", lateGrant)
	}
	if pl.InUse() != 0 {
		t.Errorf("in-use %d at end", pl.InUse())
	}
	env.Shutdown()
}

// TestResizeChurnUnderLoad shrinks and grows a pool repeatedly while a
// steady stream of jobs flows through it — the elastic controller's live
// resize path. No waiter may be stranded, every job must complete, and the
// conservation audits must stay clean at every resize boundary and at the
// quiescent end.
func TestResizeChurnUnderLoad(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 8)

	const jobs = 200
	served := 0
	for i := 0; i < jobs; i++ {
		i := i
		env.At(time.Duration(i)*100*time.Millisecond, func() {
			env.Go("job", func(p *des.Proc) {
				acquire(p, pl)
				p.Sleep(700 * time.Millisecond)
				pl.Release()
				served++
			})
		})
	}

	// Walk the capacity through deep shrinks (far below the in-flight
	// occupancy) and regrowths on a fixed cadence, auditing at each step.
	caps := []int{2, 12, 1, 6, 3, 10, 2, 8}
	for i, c := range caps {
		c := c
		env.At(time.Duration(i+1)*2*time.Second, func() {
			pl.Resize(c)
			if err := pl.Audit(); err != nil {
				t.Errorf("audit after Resize(%d): %v", c, err)
			}
		})
	}

	env.Run(10 * time.Minute)
	if served != jobs {
		t.Fatalf("served %d of %d jobs: shrink stranded waiters (queued %d, in-use %d)",
			served, jobs, pl.Queued(), pl.InUse())
	}
	if err := pl.AuditQuiescent(); err != nil {
		t.Errorf("quiescent audit: %v", err)
	}
	env.Shutdown()
}

func TestResizeInvalidPanics(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 2)
	defer func() {
		if recover() == nil {
			t.Error("Resize(0) did not panic")
		}
	}()
	pl.Resize(0)
}

func TestResizeKeepsCapacityAccessor(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 2)
	pl.Resize(5)
	if pl.Capacity() != 5 {
		t.Errorf("capacity %d, want 5", pl.Capacity())
	}
	pl.Resize(1)
	if pl.Capacity() != 1 {
		t.Errorf("capacity %d, want 1", pl.Capacity())
	}
}

func TestResizeOverfullCountsAsSaturated(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 2)
	env.Go("a", func(p *des.Proc) {
		acquire(p, pl)
		p.Sleep(10 * time.Second)
		pl.Release()
	})
	env.Go("b", func(p *des.Proc) {
		acquire(p, pl)
		p.Sleep(10 * time.Second)
		pl.Release()
	})
	env.Go("waiter", func(p *des.Proc) {
		p.Sleep(time.Second)
		acquire(p, pl)
		pl.Release()
	})
	env.At(2*time.Second, func() { pl.Resize(1) })
	env.Run(20 * time.Second)
	st := pl.Stats()
	// Over-full (2 in use, cap 1) with a waiter from t=2 to t=10: the
	// pool must report full/saturated time in that span.
	if st.Saturated < 0.4 {
		t.Errorf("saturated fraction %v, want substantial", st.Saturated)
	}
	env.Shutdown()
}

// TestSaturatedIntegralMatchesStats reads the saturation integral over a
// window that starts at a ResetStats: its change equals Stats().Saturated
// times the window's length at every reading, through time full without
// waiters, queued behind a full pool, and over-full after a shrink.
func TestSaturatedIntegralMatchesStats(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 2)
	for _, name := range []string{"a", "b"} {
		env.Go(name, func(p *des.Proc) {
			acquire(p, pl)
			p.Sleep(10 * time.Second)
			pl.Release()
		})
	}
	env.Go("waiter", func(p *des.Proc) {
		p.Sleep(3 * time.Second)
		acquire(p, pl) // queued from t=3 until a holder leaves at t=10
		p.Sleep(time.Second)
		pl.Release()
	})
	var mark time.Duration
	env.At(time.Second, func() {
		pl.ResetStats()
		mark = pl.SaturatedIntegral()
	})
	env.At(5*time.Second, func() { pl.Resize(1) })
	for at, want := range map[time.Duration]float64{
		2 * time.Second:          0, // full, nobody waiting
		4 * time.Second:          1,
		7 * time.Second:          4, // over-full after the shrink, still queued
		10500 * time.Millisecond: 7,
		15 * time.Second:         7,
	} {
		env.At(at, func() {
			got := (pl.SaturatedIntegral() - mark).Seconds()
			fromStats := pl.Stats().Saturated * (at - time.Second).Seconds()
			if math.Abs(got-fromStats) > 1e-9 || math.Abs(got-want) > 1e-9 {
				t.Errorf("at %v: saturated integral %vs, Stats %vs, want %vs", at, got, fromStats, want)
			}
		})
	}
	env.Run(20 * time.Second)
	env.Shutdown()
}
