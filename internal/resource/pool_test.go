package resource

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/softres/ntier/internal/des"
)

func TestPoolCapacityNeverExceeded(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 3)
	maxSeen := 0
	for i := 0; i < 10; i++ {
		env.Go("worker", func(p *des.Proc) {
			acquire(p, pl)
			if pl.InUse() > maxSeen {
				maxSeen = pl.InUse()
			}
			p.Sleep(time.Second)
			pl.Release()
		})
	}
	env.Run(time.Minute)
	if maxSeen > 3 {
		t.Errorf("in-use reached %d, capacity 3", maxSeen)
	}
	if pl.InUse() != 0 {
		t.Errorf("in-use %d after all released, want 0", pl.InUse())
	}
	env.Shutdown()
}

func TestPoolFIFOGrantOrder(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 1)
	var grants []int
	// Holder occupies the unit; five waiters queue in a known order.
	env.Go("holder", func(p *des.Proc) {
		acquire(p, pl)
		p.Sleep(10 * time.Second)
		pl.Release()
	})
	for i := 0; i < 5; i++ {
		i := i
		env.Go("waiter", func(p *des.Proc) {
			p.Sleep(time.Duration(i+1) * time.Second) // arrive in index order
			acquire(p, pl)
			grants = append(grants, i)
			p.Sleep(time.Second)
			pl.Release()
		})
	}
	env.Run(time.Minute)
	if len(grants) != 5 {
		t.Fatalf("granted %d, want 5", len(grants))
	}
	for i, g := range grants {
		if g != i {
			t.Fatalf("grant order %v, want FIFO", grants)
		}
	}
	env.Shutdown()
}

func TestPoolWaitTimes(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 1)
	var waited time.Duration
	env.Go("first", func(p *des.Proc) {
		acquire(p, pl)
		p.Sleep(5 * time.Second)
		pl.Release()
	})
	env.Go("second", func(p *des.Proc) {
		p.Sleep(1 * time.Second)
		waited = acquire(p, pl)
		pl.Release()
	})
	env.Run(time.Minute)
	if waited != 4*time.Second {
		t.Errorf("second waited %v, want 4s", waited)
	}
	st := pl.Stats()
	if st.Waited != 1 || st.Grants != 2 {
		t.Errorf("stats waited=%d grants=%d, want 1/2", st.Waited, st.Grants)
	}
	env.Shutdown()
}

func TestPoolUtilizationIntegral(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 2)
	// One unit held for 4s of a 10s interval: utilization = 4/(10*2) = 0.2.
	env.Go("u", func(p *des.Proc) {
		p.Sleep(2 * time.Second)
		acquire(p, pl)
		p.Sleep(4 * time.Second)
		pl.Release()
	})
	env.Run(10 * time.Second)
	st := pl.Stats()
	if diff := st.Utilization - 0.2; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("utilization %v, want 0.2", st.Utilization)
	}
	env.Shutdown()
}

func TestPoolSaturationFraction(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 1)
	env.Go("holder", func(p *des.Proc) {
		acquire(p, pl)
		p.Sleep(8 * time.Second)
		pl.Release()
	})
	env.Go("waiter", func(p *des.Proc) {
		p.Sleep(2 * time.Second)
		acquire(p, pl) // queues from t=2 to t=8
		pl.Release()
	})
	env.Run(10 * time.Second)
	st := pl.Stats()
	if st.Full < 0.799 || st.Full > 0.801 {
		t.Errorf("full fraction %v, want ~0.8", st.Full)
	}
	if st.Saturated < 0.599 || st.Saturated > 0.601 {
		t.Errorf("saturated fraction %v, want ~0.6", st.Saturated)
	}
	env.Shutdown()
}

func TestPoolOccupancyDensity(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 2)
	env.Go("a", func(p *des.Proc) {
		acquire(p, pl)
		p.Sleep(6 * time.Second)
		pl.Release()
	})
	env.Go("b", func(p *des.Proc) {
		p.Sleep(2 * time.Second)
		acquire(p, pl)
		p.Sleep(2 * time.Second)
		pl.Release()
	})
	env.Run(10 * time.Second)
	st := pl.Stats()
	// occupancy 1 during [0,2) and [4,6) = 4s; occupancy 2 during [2,4) = 2s;
	// occupancy 0 during [6,10) = 4s.
	if st.OccTime[0] != 4*time.Second || st.OccTime[1] != 4*time.Second || st.OccTime[2] != 2*time.Second {
		t.Errorf("occupancy times %v, want [4s 4s 2s]", st.OccTime)
	}
	env.Shutdown()
}

func TestPoolTryAcquire(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 1)
	if !pl.TryAcquire() {
		t.Fatal("TryAcquire failed on empty pool")
	}
	if pl.TryAcquire() {
		t.Fatal("TryAcquire succeeded on full pool")
	}
	pl.Release()
	if !pl.TryAcquire() {
		t.Fatal("TryAcquire failed after release")
	}
}

func TestPoolReleaseWithoutAcquirePanics(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release on empty pool did not panic")
		}
	}()
	pl.Release()
}

func TestPoolInvalidCapacityPanics(t *testing.T) {
	env := des.NewEnv()
	defer func() {
		if recover() == nil {
			t.Error("NewPool(0) did not panic")
		}
	}()
	NewPool(env, "bad", 0)
}

func TestPoolResetStats(t *testing.T) {
	env := des.NewEnv()
	pl := NewPool(env, "tp", 1)
	env.Go("a", func(p *des.Proc) {
		acquire(p, pl)
		p.Sleep(5 * time.Second)
		pl.Release()
	})
	env.At(2*time.Second, func() { pl.ResetStats() })
	env.Run(7 * time.Second)
	st := pl.Stats()
	// After reset at t=2, unit held for [2,5) of a 5s interval.
	if st.Utilization < 0.599 || st.Utilization > 0.601 {
		t.Errorf("post-reset utilization %v, want ~0.6", st.Utilization)
	}
	if st.Grants != 0 {
		t.Errorf("post-reset grants %d, want 0", st.Grants)
	}
	env.Shutdown()
}

// Property: for random workloads, conservation holds — every acquisition is
// matched by a release and the pool returns to empty.
func TestQuickPoolConservation(t *testing.T) {
	f := func(seed int64, nWorkers uint8, capacity uint8) bool {
		cap := int(capacity%8) + 1
		workers := int(nWorkers%32) + 1
		env := des.NewEnv()
		pl := NewPool(env, "tp", cap)
		r := rand.New(rand.NewSource(seed))
		holds := make([]time.Duration, workers)
		starts := make([]time.Duration, workers)
		for i := range holds {
			holds[i] = time.Duration(r.Intn(5000)+1) * time.Millisecond
			starts[i] = time.Duration(r.Intn(5000)) * time.Millisecond
		}
		for i := 0; i < workers; i++ {
			i := i
			env.Go("w", func(p *des.Proc) {
				p.Sleep(starts[i])
				acquire(p, pl)
				if pl.InUse() > cap {
					t.Errorf("in-use %d > capacity %d", pl.InUse(), cap)
				}
				p.Sleep(holds[i])
				pl.Release()
			})
		}
		env.Run(time.Hour)
		ok := pl.InUse() == 0 && pl.Queued() == 0 && pl.Stats().Grants == uint64(workers)
		env.Shutdown()
		return ok
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
