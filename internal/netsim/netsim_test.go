package netsim

import (
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/rng"
)

// cross starts a stepping process that crosses l once and returns the
// time the hop was behind it, and how many dispatches that took.
func cross(env *des.Env, l Link) (done *time.Duration, steps *int) {
	done, steps = new(time.Duration), new(int)
	*done = -1
	crossed := false
	env.GoStep("hop", func(p *des.Proc) {
		*steps++
		if !crossed {
			crossed = true
			if !l.Cross(p) {
				return
			}
		}
		*done = p.Now()
	})
	return done, steps
}

func TestLinkTraverse(t *testing.T) {
	env := des.NewEnv()
	done, steps := cross(env, Link{Latency: 200 * time.Microsecond})
	env.Run(time.Second)
	if *done != 200*time.Microsecond || *steps != 2 {
		t.Errorf("cross took %v over %d dispatches, want 200µs over 2", *done, *steps)
	}
	env.Shutdown()
}

func TestZeroLatencyLinkIsFree(t *testing.T) {
	env := des.NewEnv()
	done, steps := cross(env, Link{})
	env.Run(time.Second)
	if *done != 0 || *steps != 1 {
		t.Errorf("zero-latency cross took %v over %d dispatches, want 0 over 1", *done, *steps)
	}
	env.Shutdown()
}

func TestFinTailProbBelowKnee(t *testing.T) {
	f := NewFinModel(rng.New(1))
	f.SetLoad(1000)
	if p := f.TailProb(); p != 0 {
		t.Errorf("tail prob %v below knee, want 0", p)
	}
}

func TestFinTailProbGrowsWithLoad(t *testing.T) {
	f := NewFinModel(rng.New(1))
	f.SetLoad(3300)
	low := f.TailProb()
	f.SetLoad(3700)
	high := f.TailProb()
	if low <= 0 {
		t.Errorf("tail prob %v just above knee, want > 0", low)
	}
	if high <= low {
		t.Errorf("tail prob should grow with load: %v vs %v", low, high)
	}
}

func TestFinTailProbCapped(t *testing.T) {
	f := NewFinModel(rng.New(1))
	f.SetLoad(1e9)
	if p := f.TailProb(); p != finTailProbMax {
		t.Errorf("tail prob %v at extreme load, want cap %v", p, finTailProbMax)
	}
}

func TestFinSampleDistributionShift(t *testing.T) {
	mean := func(load float64) time.Duration {
		f := NewFinModel(rng.New(42))
		f.SetLoad(load)
		var total time.Duration
		n := 20000
		for i := 0; i < n; i++ {
			total += f.Sample()
		}
		return total / time.Duration(n)
	}
	low := mean(2000)
	high := mean(3700)
	if low > 4*time.Millisecond {
		t.Errorf("mean FIN delay %v at low load, want ~2ms", low)
	}
	if high < 10*low {
		t.Errorf("mean FIN delay should blow up past the knee: %v vs %v", low, high)
	}
}

func TestFinSampleBounds(t *testing.T) {
	f := NewFinModel(rng.New(7))
	f.SetLoad(5000)
	for i := 0; i < 10000; i++ {
		d := f.Sample()
		if d < 0 {
			t.Fatalf("negative FIN delay %v", d)
		}
		if d > finTailMax {
			t.Fatalf("FIN delay %v beyond the tail's maximum %v", d, finTailMax)
		}
	}
}
