package hw

import (
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
)

// transfer starts a stepping process that takes one transfer of service
// through d and then calls done, if set.
func transfer(env *des.Env, d *Disk, service time.Duration, done func(p *des.Proc)) {
	started := false
	env.GoStep("w", func(p *des.Proc) {
		if !started {
			started = true
			if !d.Use(p, service) {
				return
			}
		} else if !d.Resume(p, service) {
			return
		}
		if done != nil {
			done(p)
		}
	})
}

func TestDiskFCFS(t *testing.T) {
	env := des.NewEnv()
	d := NewDisk(env, "disk")
	var done []time.Duration
	for i := 0; i < 3; i++ {
		transfer(env, d, 10*time.Millisecond, func(p *des.Proc) {
			done = append(done, p.Now())
		})
	}
	env.Run(time.Second)
	// One at a time: completions at 10, 20, 30ms.
	want := []time.Duration{10, 20, 30}
	if len(done) != 3 {
		t.Fatalf("%d transfers completed", len(done))
	}
	for i, w := range want {
		if done[i] != w*time.Millisecond {
			t.Errorf("transfer %d done at %v, want %v", i, done[i], w*time.Millisecond)
		}
	}
	env.Shutdown()
}

func TestDiskUtilization(t *testing.T) {
	env := des.NewEnv()
	d := NewDisk(env, "disk")
	transfer(env, d, 2*time.Second, nil)
	env.Run(10 * time.Second)
	if u := d.Utilization(); u < 0.199 || u > 0.201 {
		t.Errorf("utilization %v, want 0.2", u)
	}
	env.Shutdown()
}

func TestDiskZeroServiceFree(t *testing.T) {
	env := des.NewEnv()
	d := NewDisk(env, "disk")
	var done time.Duration
	done = -1
	transfer(env, d, 0, func(p *des.Proc) { done = p.Now() })
	env.Run(time.Second)
	if done != 0 {
		t.Errorf("zero-service transfer took %v", done)
	}
	env.Shutdown()
}

func TestAttachDiskIdempotent(t *testing.T) {
	env := des.NewEnv()
	n := NewNode(env, "mysql1", PC3000())
	if n.Disk() != nil {
		t.Fatal("disk present before attach")
	}
	d1 := n.AttachDisk()
	d2 := n.AttachDisk()
	if d1 != d2 {
		t.Error("AttachDisk not idempotent")
	}
	if n.Disk() != d1 {
		t.Error("Disk() accessor mismatch")
	}
}

func TestNodeResetResetsDisk(t *testing.T) {
	env := des.NewEnv()
	n := NewNode(env, "mysql1", PC3000())
	d := n.AttachDisk()
	transfer(env, d, time.Second, nil)
	env.Run(2 * time.Second)
	n.ResetStats()
	env.Run(4 * time.Second)
	if u := d.Utilization(); u != 0 {
		t.Errorf("disk utilization %v after reset with no traffic, want 0", u)
	}
}
