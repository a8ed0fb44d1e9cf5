package jvm

import (
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/resource"
)

// allocate reports alloc MiB for p on its coroutine, asleep through the
// collection it starts, if any.
func allocate(p *des.Proc, j *JVM, alloc float64) {
	if pause, gc := j.Allocate(alloc); gc {
		p.Sleep(pause)
		j.Collected()
	}
}

// use runs work on c for p on its coroutine, parked until the job completes.
func use(p *des.Proc, c *resource.CPU, work time.Duration) {
	if c.Use(p, work) {
		p.Park()
	}
}

// testConfig runs under the collector's calibration: 2 MiB live per
// slot, and a pause of 20ms plus 0.3ms per live MiB.
func testConfig() Config {
	return Config{HeapMiB: 1000, BaseLiveMiB: 100, MinFreeMiB: 50}
}

func TestNoGCBelowHeadroom(t *testing.T) {
	env := des.NewEnv()
	cpu := resource.NewCPU(env, "cpu", 1)
	j := New(env, "jvm", cpu, testConfig(), func() int { return 10 })
	env.Go("alloc", func(p *des.Proc) {
		allocate(p, j, 100) // headroom = 1000-120 = 880
	})
	env.Run(time.Second)
	if got := j.Stats().GCCount; got != 0 {
		t.Errorf("GC ran %d times below headroom, want 0", got)
	}
	env.Shutdown()
}

func TestGCTriggersAtHeadroom(t *testing.T) {
	env := des.NewEnv()
	cpu := resource.NewCPU(env, "cpu", 1)
	j := New(env, "jvm", cpu, testConfig(), func() int { return 10 })
	var after time.Duration
	env.Go("alloc", func(p *des.Proc) {
		allocate(p, j, 900) // exceeds headroom 880 -> collect
		after = p.Now()
	})
	env.Run(time.Minute)
	st := j.Stats()
	if st.GCCount != 1 {
		t.Fatalf("GC count %d, want 1", st.GCCount)
	}
	// live = 120 MiB -> pause = 20ms + 36ms = 56ms.
	want := 56 * time.Millisecond
	if st.TotalGC != want {
		t.Errorf("GC time %v, want %v", st.TotalGC, want)
	}
	if after != want {
		t.Errorf("caller resumed at %v, want %v (paused for the collection)", after, want)
	}
	env.Shutdown()
}

func TestGCFreezesCPUJobs(t *testing.T) {
	env := des.NewEnv()
	cpu := resource.NewCPU(env, "cpu", 1)
	j := New(env, "jvm", cpu, testConfig(), func() int { return 0 })
	var jobDone time.Duration
	env.Go("worker", func(p *des.Proc) {
		use(p, cpu, 100*time.Millisecond)
		jobDone = p.Now()
	})
	env.Go("allocator", func(p *des.Proc) {
		p.Sleep(50 * time.Millisecond)
		allocate(p, j, 2000) // forces GC; live=100 -> pause 50ms
	})
	env.Run(time.Minute)
	// Worker: 50ms done, frozen 50ms, 50ms more -> 150ms.
	want := 150 * time.Millisecond
	if d := jobDone - want; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("frozen job finished at %v, want ~%v", jobDone, want)
	}
	env.Shutdown()
}

func TestPauseGrowsWithSlots(t *testing.T) {
	env := des.NewEnv()
	cpu := resource.NewCPU(env, "cpu", 1)
	slots := 10
	j := New(env, "jvm", cpu, testConfig(), func() int { return slots })
	small := j.PauseEstimate()
	slots = 200
	large := j.PauseEstimate()
	if large <= small {
		t.Errorf("pause did not grow with slots: %v vs %v", small, large)
	}
	// live goes 120 -> 500 MiB: pause 56ms -> 170ms.
	if small != 56*time.Millisecond || large != 170*time.Millisecond {
		t.Errorf("pause at 10 and 200 slots %v and %v, want 56ms and 170ms", small, large)
	}
}

func TestGCFrequencyGrowsWithSlots(t *testing.T) {
	countGCs := func(slots int) uint64 {
		env := des.NewEnv()
		cpu := resource.NewCPU(env, "cpu", 1)
		j := New(env, "jvm", cpu, testConfig(), func() int { return slots })
		env.Go("alloc", func(p *des.Proc) {
			for i := 0; i < 200; i++ {
				allocate(p, j, 10)
				p.Sleep(time.Millisecond)
			}
		})
		env.Run(time.Hour)
		n := j.Stats().GCCount
		env.Shutdown()
		return n
	}
	few := countGCs(10)   // headroom 880 -> 2000 MiB alloc => ~2 GCs
	many := countGCs(460) // live 1020 > heap -> MinFree floor 50 => ~40 GCs
	if many <= few*5 {
		t.Errorf("GC count should grow super-linearly with slots: %d vs %d", few, many)
	}
}

func TestMinFreeFloor(t *testing.T) {
	env := des.NewEnv()
	cpu := resource.NewCPU(env, "cpu", 1)
	// 100 + 500 slots * 2 MiB = 1100 MiB live > heap: headroom clamps to
	// MinFree.
	j := New(env, "jvm", cpu, testConfig(), func() int { return 500 })
	if got := j.headroom(); got != 50 {
		t.Errorf("headroom %v, want MinFree floor 50", got)
	}
}

func TestResetStats(t *testing.T) {
	env := des.NewEnv()
	cpu := resource.NewCPU(env, "cpu", 1)
	j := New(env, "jvm", cpu, testConfig(), func() int { return 10 })
	env.Go("alloc", func(p *des.Proc) {
		allocate(p, j, 900)
		j.ResetStats()
	})
	env.Run(time.Minute)
	if st := j.Stats(); st.GCCount != 0 || st.TotalGC != 0 {
		t.Errorf("stats not reset: %+v", st)
	}
	env.Shutdown()
}

func TestNilSlotsGauge(t *testing.T) {
	env := des.NewEnv()
	cpu := resource.NewCPU(env, "cpu", 1)
	j := New(env, "jvm", cpu, testConfig(), nil)
	if j.live() != 100 {
		t.Errorf("live with nil gauge %v, want base 100", j.live())
	}
}

func TestInvalidHeapPanics(t *testing.T) {
	env := des.NewEnv()
	cpu := resource.NewCPU(env, "cpu", 1)
	defer func() {
		if recover() == nil {
			t.Error("zero heap did not panic")
		}
	}()
	New(env, "jvm", cpu, Config{}, nil)
}

func TestGCFractionAccounting(t *testing.T) {
	env := des.NewEnv()
	cpu := resource.NewCPU(env, "cpu", 1)
	j := New(env, "jvm", cpu, testConfig(), func() int { return 10 })
	env.Go("alloc", func(p *des.Proc) {
		allocate(p, j, 900) // one GC: 56ms
	})
	env.Run(560 * time.Millisecond)
	st := j.Stats()
	if st.GCFraction < 0.099 || st.GCFraction > 0.101 {
		t.Errorf("GC fraction %v, want ~0.1 (56ms of 560ms)", st.GCFraction)
	}
	if j.GCTimeIntegral() != 0.056 {
		t.Errorf("GC integral %v, want 0.056", j.GCTimeIntegral())
	}
	env.Shutdown()
}
