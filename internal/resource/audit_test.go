package resource

import (
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
)

// A pool under live traffic must pass the structural audit at any instant,
// and the quiescent audit once everything is released.
func TestPoolAudit(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	pl := NewPool(env, "p", 2)
	for i := 0; i < 4; i++ {
		env.Go("h", func(p *des.Proc) {
			acquire(p, pl)
			p.Sleep(time.Second)
			pl.Release()
		})
	}
	env.Run(500 * time.Millisecond) // mid-hold, two queued
	if err := pl.Audit(); err != nil {
		t.Errorf("mid-run audit: %v", err)
	}
	if err := pl.AuditQuiescent(); err == nil {
		t.Error("quiescent audit passed with units in use")
	}
	env.Run(10 * time.Second)
	if err := pl.AuditQuiescent(); err != nil {
		t.Errorf("drained audit: %v", err)
	}
}

// A leak that is never restored must fail the quiescent audit — the
// invariant the chaos campaign's planted-bug acceptance test relies on.
func TestPoolAuditCatchesUnrestoredLeak(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	pl := NewPool(env, "p", 4)
	pl.Leak(3)
	pl.Restore(2)
	env.Run(time.Second)
	if err := pl.Audit(); err != nil {
		t.Errorf("structural audit should tolerate an active leak: %v", err)
	}
	err := pl.AuditQuiescent()
	if err == nil {
		t.Fatal("quiescent audit passed with a leaked unit outstanding")
	}
	if !strings.Contains(err.Error(), "leak") {
		t.Errorf("violation does not name the leak: %v", err)
	}
}

// The occupancy histogram must account for every nanosecond of the stats
// interval, exactly.
func TestPoolAuditOccupancyConservation(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	pl := NewPool(env, "p", 3)
	env.Go("h", func(p *des.Proc) {
		for i := 0; i < 5; i++ {
			acquire(p, pl)
			p.Sleep(137 * time.Millisecond)
			pl.Release()
			p.Sleep(41 * time.Millisecond)
		}
	})
	env.Run(300 * time.Millisecond)
	pl.ResetStats()
	env.Run(777 * time.Millisecond)
	if err := pl.Audit(); err != nil {
		t.Errorf("audit after mid-run reset: %v", err)
	}
	// Corrupt the histogram: the audit must notice the lost time.
	pl.occTime[0] -= time.Millisecond
	if err := pl.Audit(); err == nil {
		t.Error("audit missed a corrupted occupancy histogram")
	}
}

func TestCPUAudit(t *testing.T) {
	env := des.NewEnv()
	defer env.Shutdown()
	c := NewCPU(env, "c", 2)
	for i := 0; i < 3; i++ {
		env.Go("j", func(p *des.Proc) { use(p, c, time.Second) })
	}
	env.Run(time.Second) // jobs still running under PS
	if err := c.Audit(); err != nil {
		t.Errorf("mid-run audit: %v", err)
	}
	if err := c.AuditQuiescent(); err == nil {
		t.Error("quiescent audit passed with jobs active")
	}
	env.Run(10 * time.Second)
	if err := c.AuditQuiescent(); err != nil {
		t.Errorf("idle audit: %v", err)
	}
	c.SetSpeed(0.5)
	if err := c.AuditQuiescent(); err == nil {
		t.Error("quiescent audit passed with a brown-out still applied")
	}
	c.SetSpeed(1)
	// Corrupt the busy integral past the capacity bound.
	c.busyIntegral = float64(c.cores)*env.Now().Seconds() + 1
	if err := c.Audit(); err == nil {
		t.Error("audit missed a busy integral exceeding capacity")
	}
}
