package resource

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/softres/ntier/internal/des"
)

// use runs work on c for p on its coroutine, parked until the job completes.
func use(p *des.Proc, c *CPU, work time.Duration) {
	if c.Use(p, work) {
		p.Park()
	}
}

func TestCPUSingleJobTakesWork(t *testing.T) {
	env := des.NewEnv()
	cpu := NewCPU(env, "cpu", 1)
	var done time.Duration
	env.Go("job", func(p *des.Proc) {
		use(p, cpu, 3*time.Second)
		done = p.Now()
	})
	env.Run(time.Minute)
	if done != 3*time.Second {
		t.Errorf("single job finished at %v, want 3s", done)
	}
	env.Shutdown()
}

func TestCPUProcessorSharingSlowdown(t *testing.T) {
	env := des.NewEnv()
	cpu := NewCPU(env, "cpu", 1)
	var doneA, doneB time.Duration
	env.Go("a", func(p *des.Proc) {
		use(p, cpu, 2*time.Second)
		doneA = p.Now()
	})
	env.Go("b", func(p *des.Proc) {
		use(p, cpu, 2*time.Second)
		doneB = p.Now()
	})
	env.Run(time.Minute)
	// Two equal jobs sharing one core finish together at 4s.
	if !near(doneA, 4*time.Second) || !near(doneB, 4*time.Second) {
		t.Errorf("PS finish times %v, %v; want ~4s each", doneA, doneB)
	}
	env.Shutdown()
}

func TestCPUUnequalJobsPS(t *testing.T) {
	env := des.NewEnv()
	cpu := NewCPU(env, "cpu", 1)
	var doneShort, doneLong time.Duration
	env.Go("short", func(p *des.Proc) {
		use(p, cpu, 1*time.Second)
		doneShort = p.Now()
	})
	env.Go("long", func(p *des.Proc) {
		use(p, cpu, 3*time.Second)
		doneLong = p.Now()
	})
	env.Run(time.Minute)
	// Shared until short finishes: short needs 1s service at half speed = 2s.
	// Long then has 2s left at full speed: finishes at 4s.
	if !near(doneShort, 2*time.Second) {
		t.Errorf("short finished at %v, want ~2s", doneShort)
	}
	if !near(doneLong, 4*time.Second) {
		t.Errorf("long finished at %v, want ~4s", doneLong)
	}
	env.Shutdown()
}

func TestCPUMultiCoreFullSpeedBelowCapacity(t *testing.T) {
	env := des.NewEnv()
	cpu := NewCPU(env, "cpu", 2)
	var doneA, doneB time.Duration
	env.Go("a", func(p *des.Proc) {
		use(p, cpu, 2*time.Second)
		doneA = p.Now()
	})
	env.Go("b", func(p *des.Proc) {
		use(p, cpu, 2*time.Second)
		doneB = p.Now()
	})
	env.Run(time.Minute)
	// Two jobs on two cores: no slowdown.
	if !near(doneA, 2*time.Second) || !near(doneB, 2*time.Second) {
		t.Errorf("dual-core finish times %v, %v; want ~2s", doneA, doneB)
	}
	env.Shutdown()
}

func TestCPULateArrival(t *testing.T) {
	env := des.NewEnv()
	cpu := NewCPU(env, "cpu", 1)
	var doneA, doneB time.Duration
	env.Go("a", func(p *des.Proc) {
		use(p, cpu, 3*time.Second)
		doneA = p.Now()
	})
	env.Go("b", func(p *des.Proc) {
		p.Sleep(1 * time.Second)
		use(p, cpu, 1*time.Second)
		doneB = p.Now()
	})
	env.Run(time.Minute)
	// A alone [0,1): 1s done. Shared [1,3): each gets 1s. B done at 3s.
	// A has 1s left alone: done at 4s.
	if !near(doneB, 3*time.Second) {
		t.Errorf("B finished at %v, want ~3s", doneB)
	}
	if !near(doneA, 4*time.Second) {
		t.Errorf("A finished at %v, want ~4s", doneA)
	}
	env.Shutdown()
}

func TestCPUStopTheWorldFreezesJobs(t *testing.T) {
	env := des.NewEnv()
	cpu := NewCPU(env, "cpu", 1)
	var done time.Duration
	env.Go("job", func(p *des.Proc) {
		use(p, cpu, 2*time.Second)
		done = p.Now()
	})
	env.At(1*time.Second, func() { cpu.SetSpeed(0) })
	env.At(4*time.Second, func() { cpu.SetSpeed(1) })
	env.Run(time.Minute)
	// 1s done before freeze, 3s frozen, 1s after: finishes at 5s.
	if !near(done, 5*time.Second) {
		t.Errorf("job finished at %v, want ~5s", done)
	}
	st := cpu.Stats()
	if st.Stalled < 0.04 {
		t.Errorf("stalled fraction %v, want > 0", st.Stalled)
	}
	env.Shutdown()
}

func TestCPUUtilization(t *testing.T) {
	env := des.NewEnv()
	cpu := NewCPU(env, "cpu", 2)
	env.Go("job", func(p *des.Proc) {
		use(p, cpu, 4*time.Second)
	})
	env.Run(10 * time.Second)
	// 4 core-seconds of work over 10s on 2 cores: utilization 0.2.
	st := cpu.Stats()
	if math.Abs(st.Utilization-0.2) > 1e-9 {
		t.Errorf("utilization %v, want 0.2", st.Utilization)
	}
	if st.JobsDone != 1 {
		t.Errorf("jobs done %d, want 1", st.JobsDone)
	}
	env.Shutdown()
}

func TestCPUZeroWorkReturnsImmediately(t *testing.T) {
	env := des.NewEnv()
	cpu := NewCPU(env, "cpu", 1)
	var done time.Duration
	env.Go("job", func(p *des.Proc) {
		use(p, cpu, 0)
		done = p.Now()
	})
	env.Run(time.Second)
	if done != 0 {
		t.Errorf("zero work finished at %v, want 0", done)
	}
	env.Shutdown()
}

func TestCPUResetStats(t *testing.T) {
	env := des.NewEnv()
	cpu := NewCPU(env, "cpu", 1)
	env.Go("a", func(p *des.Proc) { use(p, cpu, 2*time.Second) })
	env.Run(2 * time.Second)
	cpu.ResetStats()
	env.Go("b", func(p *des.Proc) { use(p, cpu, 1*time.Second) })
	env.Run(4 * time.Second)
	st := cpu.Stats()
	// After reset at t=2: 1 core-second over 2 seconds = 0.5.
	if math.Abs(st.Utilization-0.5) > 1e-9 {
		t.Errorf("post-reset utilization %v, want 0.5", st.Utilization)
	}
	env.Shutdown()
}

// Property: total service delivered equals total service demanded, and every
// job completes no earlier than its service time.
func TestQuickCPUWorkConservation(t *testing.T) {
	f := func(seed int64, nJobs uint8, cores uint8) bool {
		c := int(cores%4) + 1
		jobs := int(nJobs%24) + 1
		env := des.NewEnv()
		cpu := NewCPU(env, "cpu", c)
		r := rand.New(rand.NewSource(seed))
		totalWork := time.Duration(0)
		completed := 0
		okTimes := true
		for i := 0; i < jobs; i++ {
			work := time.Duration(r.Intn(2000)+1) * time.Millisecond
			start := time.Duration(r.Intn(3000)) * time.Millisecond
			totalWork += work
			env.Go("j", func(p *des.Proc) {
				p.Sleep(start)
				t0 := p.Now()
				use(p, cpu, work)
				if p.Now()-t0 < work-time.Microsecond {
					okTimes = false
				}
				completed++
			})
		}
		env.Run(time.Hour)
		st := cpu.Stats()
		// busyIntegral counts delivered core-seconds == demanded seconds.
		delivered := st.Utilization * time.Hour.Seconds() * float64(c)
		ok := completed == jobs && okTimes &&
			math.Abs(delivered-totalWork.Seconds()) < 1e-3
		env.Shutdown()
		return ok
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func near(got, want time.Duration) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= time.Millisecond
}
