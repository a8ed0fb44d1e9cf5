package hw

import (
	"math"
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/resource"
)

// use runs work on c for p on its coroutine, parked until the job completes.
func use(p *des.Proc, c *resource.CPU, work time.Duration) {
	if c.Use(p, work) {
		p.Park()
	}
}

func TestPC3000Spec(t *testing.T) {
	spec := PC3000()
	if spec.Cores != 1 || spec.MemoryMiB != 2048 {
		t.Errorf("PC3000 = %+v, want 1 core / 2048 MiB", spec)
	}
}

func TestNodeUtilizationFromWork(t *testing.T) {
	env := des.NewEnv()
	n := NewNode(env, "tomcat1", PC3000())
	env.Go("job", func(p *des.Proc) {
		use(p, n.CPU(), 4*time.Second)
	})
	env.Run(10 * time.Second)
	if u := n.Utilization(); math.Abs(u-0.4) > 1e-9 {
		t.Errorf("utilization %v, want 0.4", u)
	}
	env.Shutdown()
}

func TestNodeOverheadAddsToUtilization(t *testing.T) {
	env := des.NewEnv()
	n := NewNode(env, "cjdbc", PC3000())
	gc := 0.0
	n.AddOverhead(func() float64 { return gc })
	env.Go("job", func(p *des.Proc) {
		use(p, n.CPU(), 2*time.Second)
	})
	env.At(5*time.Second, func() { gc = 3 }) // 3s of GC busy time
	env.Run(10 * time.Second)
	if u := n.Utilization(); math.Abs(u-0.5) > 1e-9 {
		t.Errorf("utilization %v, want 0.5 (0.2 work + 0.3 GC)", u)
	}
	env.Shutdown()
}

func TestNodeUtilizationCapped(t *testing.T) {
	env := des.NewEnv()
	n := NewNode(env, "x", PC3000())
	n.AddOverhead(func() float64 { return 100 })
	env.Run(time.Second)
	if u := n.Utilization(); u != 1 {
		t.Errorf("utilization %v, want capped at 1", u)
	}
}

func TestNodeResetStatsExcludesPriorOverhead(t *testing.T) {
	env := des.NewEnv()
	n := NewNode(env, "x", PC3000())
	gc := 5.0
	n.AddOverhead(func() float64 { return gc })
	env.Run(2 * time.Second)
	n.ResetStats()
	env.Run(12 * time.Second) // 10s interval, no new overhead
	if u := n.Utilization(); u != 0 {
		t.Errorf("utilization %v after reset with no new overhead, want 0", u)
	}
	gc = 6.0 // 1 new second of overhead
	if u := n.Utilization(); math.Abs(u-0.1) > 1e-9 {
		t.Errorf("utilization %v, want 0.1", u)
	}
}

func TestBusyIntegralCombines(t *testing.T) {
	env := des.NewEnv()
	n := NewNode(env, "x", PC3000())
	n.AddOverhead(func() float64 { return 2.5 })
	env.Go("job", func(p *des.Proc) { use(p, n.CPU(), time.Second) })
	env.Run(5 * time.Second)
	if got := n.BusyIntegral(); math.Abs(got-3.5) > 1e-9 {
		t.Errorf("busy integral %v, want 3.5", got)
	}
	env.Shutdown()
}
