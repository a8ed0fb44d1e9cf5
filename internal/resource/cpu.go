package resource

import (
	"fmt"
	"math"
	"time"

	"github.com/softres/ntier/internal/des"
)

// CPU models a multi-core processor under processor sharing (PS): all active
// jobs progress simultaneously, each at rate speed*min(1, cores/n). PS is
// implemented in virtual time so every state change costs O(log n).
//
// The speed factor supports stop-the-world pauses (JVM garbage collection):
// at speed 0 no job progresses and the virtual clock freezes. Time spent
// stalled is charged separately so node-level utilization can attribute it.
type CPU struct {
	env   *des.Env
	name  string
	cores int
	speed float64

	vnow       float64 // per-job attained service, in seconds of work
	lastUpdate time.Duration
	jobs       jobHeap
	// completion is the single re-armed event for the earliest-finishing
	// job. A des.Timer recycles the canceled record on every re-arm, so
	// the cancel-on-nearly-every-state-change pattern allocates nothing
	// and cannot grow the event queue.
	completion *des.Timer

	statsStart   time.Duration
	busyIntegral float64       // core-seconds of useful work delivered
	stallBusy    time.Duration // wall time with jobs present but speed == 0
	jobsDone     uint64
	workDone     float64 // seconds of service completed
}

// cpuJob is one running job, stored by value in the finish-ordered heap:
// admitting and completing jobs allocates nothing.
type cpuJob struct {
	finishV float64
	proc    *des.Proc
}

// vRebase is the attained-service level (in seconds of work) at which the
// virtual clock is rebased to zero. Over a million-job run vnow otherwise
// grows without bound and float64 ulps at large magnitudes erode the
// precision of remaining-work differences; rebasing keeps vnow small while
// preserving job order exactly (subtracting one constant from every finish
// tag is monotone). The CPU also rebases for free whenever it goes idle.
const vRebase = 1 << 20

// NewCPU creates a processor with the given core count, running at full
// speed. Cores must be positive.
func NewCPU(env *des.Env, name string, cores int) *CPU {
	if cores <= 0 {
		panic(fmt.Sprintf("resource: cpu %q with %d cores", name, cores))
	}
	c := &CPU{env: env, name: name, cores: cores, speed: 1}
	c.completion = env.NewTimer(c.complete)
	return c
}

// Speed returns the current speed factor.
func (c *CPU) Speed() float64 { return c.speed }

// rate returns the per-job progress rate in seconds of work per second.
func (c *CPU) rate() float64 {
	n := len(c.jobs)
	if n == 0 || c.speed == 0 {
		return 0
	}
	share := 1.0
	if n > c.cores {
		share = float64(c.cores) / float64(n)
	}
	return c.speed * share
}

// update advances the virtual clock and busy-time integrals to now. It is
// called only on state changes (Use, SetSpeed, complete, ResetStats) —
// never from reads — so the floating-point accumulation path is a function
// of the job/speed event sequence alone. Observers sampling mid-run cannot
// alter it (see pending).
func (c *CPU) update() {
	now := c.env.Now()
	dt := (now - c.lastUpdate).Seconds()
	if dt > 0 {
		n := len(c.jobs)
		if n > 0 {
			if r := c.rate(); r > 0 {
				c.vnow += dt * r
				c.busyIntegral += dt * r * float64(n) // = dt*speed*min(n,cores)
			} else {
				c.stallBusy += now - c.lastUpdate
			}
		}
	}
	c.lastUpdate = now
}

// pending returns the busy-integral and stall increments accrued since the
// last state change, without storing them. Reads are pure: the same
// arithmetic update would perform, computed on the side, so sampling at
// arbitrary instants never splits an accumulation step and therefore never
// perturbs vnow, completion times, or reported statistics.
func (c *CPU) pending() (busy float64, stall time.Duration) {
	now := c.env.Now()
	dt := (now - c.lastUpdate).Seconds()
	if dt > 0 {
		if n := len(c.jobs); n > 0 {
			if r := c.rate(); r > 0 {
				busy = dt * r * float64(n)
			} else {
				stall = now - c.lastUpdate
			}
		}
	}
	return busy, stall
}

const vEps = 1e-12

// rebase subtracts the current virtual time from every job's finish tag and
// resets vnow to zero — called when the CPU goes idle (free: no jobs to
// touch) or when vnow crosses vRebase on a long run. Job order and the
// remaining work remain/r of every job are preserved; only the common
// offset changes.
func (c *CPU) rebase() {
	if len(c.jobs) == 0 {
		c.vnow = 0
		return
	}
	for i := range c.jobs {
		c.jobs[i].finishV -= c.vnow
	}
	c.vnow = 0
}

// reschedule (re)arms the completion event for the earliest-finishing job.
func (c *CPU) reschedule() {
	if len(c.jobs) == 0 {
		c.completion.Stop()
		return
	}
	r := c.rate()
	if r == 0 {
		c.completion.Stop()
		return // frozen; SetSpeed will re-arm
	}
	remain := c.jobs[0].finishV - c.vnow
	if remain < 0 {
		remain = 0
	}
	// Ceil to a whole nanosecond so the event never fires early; clamp so
	// a pathological remain/r (a brownout to a near-zero speed with work
	// outstanding) saturates at the end of representable time instead of
	// overflowing time.Duration and panicking the scheduler with a
	// negative delay. The comparison is float-safe: 1<<62 ns (~146 years)
	// is exactly representable and far below the int64 horizon.
	ns := math.Ceil(remain / r * 1e9)
	if ns < float64(int64(1)<<62) {
		c.completion.Arm(time.Duration(ns))
	} else { // includes +Inf from denormal rates
		c.completion.ArmAt(time.Duration(math.MaxInt64))
	}
}

// complete finishes every job whose service requirement is met.
func (c *CPU) complete() {
	c.update()
	for len(c.jobs) > 0 && c.jobs[0].finishV <= c.vnow+vEps {
		job := c.jobs.pop()
		c.jobsDone++
		job.proc.Unpark()
	}
	if len(c.jobs) == 0 || c.vnow > vRebase {
		c.rebase()
	}
	c.reschedule()
}

// Use queues `work` seconds of service for p under PS and reports whether
// p must wait for it: false for zero or negative work; true once the job
// is admitted, and then p waits (des.Proc.Suspend) for the Unpark its
// completion sends.
func (c *CPU) Use(p *des.Proc, work time.Duration) bool {
	if work <= 0 {
		return false
	}
	c.update()
	if len(c.jobs) == 0 {
		c.vnow = 0 // idle: rebase for free before admitting
	}
	w := work.Seconds()
	c.jobs.push(cpuJob{finishV: c.vnow + w, proc: p})
	c.workDone += w // counted on admission; conserved because jobs always finish
	c.reschedule()
	return true
}

// SetSpeed changes the speed factor (0 freezes all jobs — a stop-the-world
// pause; 1 is full speed). Negative speeds panic.
func (c *CPU) SetSpeed(s float64) {
	if s < 0 {
		panic("resource: negative CPU speed")
	}
	c.update()
	c.speed = s
	c.reschedule()
}

// ResetStats discards accumulated statistics and starts a new interval.
func (c *CPU) ResetStats() {
	c.update()
	c.statsStart = c.env.Now()
	c.busyIntegral = 0
	c.stallBusy = 0
	c.jobsDone = 0
	c.workDone = 0
}

// CPUStats is a snapshot of a CPU's accumulated statistics.
type CPUStats struct {
	Name        string
	Cores       int
	Utilization float64 // useful work delivered / capacity
	Stalled     float64 // fraction of wall time frozen with jobs present
	JobsDone    uint64
}

// Stats returns a snapshot integrated to now. Utilization counts only
// useful work; callers add externally-tracked overheads (e.g. GC) on top.
// Stats is a pure read — it never mutates the CPU, so samplers may call it
// at any simulated instant without perturbing the run.
func (c *CPU) Stats() CPUStats {
	busy, stall := c.pending()
	elapsed := (c.env.Now() - c.statsStart).Seconds()
	s := CPUStats{Name: c.name, Cores: c.cores, JobsDone: c.jobsDone}
	if elapsed > 0 {
		s.Utilization = (c.busyIntegral + busy) / elapsed / float64(c.cores)
		s.Stalled = (c.stallBusy + stall).Seconds() / elapsed
	}
	return s
}

// BusyIntegral returns accumulated core-seconds of useful work; window
// samplers diff successive readings. Pure read: never mutates the CPU.
func (c *CPU) BusyIntegral() float64 {
	busy, _ := c.pending()
	return c.busyIntegral + busy
}

// cpuAuditSlack absorbs float64 rounding in the busy-integral bound: the
// integral is a sum of dt*rate products whose error grows with event
// count, so the capacity comparison needs a small relative tolerance.
const cpuAuditSlack = 1e-6

// Audit checks the CPU's conservation invariants: non-negative integrals,
// delivered work within the capacity bound (busy core-seconds can never
// exceed cores x elapsed), stall time within wall time, and the job heap
// ordered. Pure read, run by testbed.Testbed.Audit at every trial's
// horizon.
func (c *CPU) Audit() error {
	if c.busyIntegral < 0 || c.stallBusy < 0 || c.workDone < 0 {
		return fmt.Errorf("resource: cpu %q accumulated negative statistics", c.name)
	}
	busy, stall := c.pending()
	elapsed := (c.env.Now() - c.statsStart).Seconds()
	if bound := float64(c.cores) * elapsed; c.busyIntegral+busy > bound*(1+cpuAuditSlack)+cpuAuditSlack {
		return fmt.Errorf("resource: cpu %q delivered %.6f core-seconds in a %.6f core-second interval", c.name, c.busyIntegral+busy, bound)
	}
	if total := c.stallBusy + stall; total > c.env.Now()-c.statsStart {
		return fmt.Errorf("resource: cpu %q stalled %v in a %v interval", c.name, total, c.env.Now()-c.statsStart)
	}
	for i := 1; i < len(c.jobs); i++ {
		if c.jobs[i].finishV < c.jobs[(i-1)/2].finishV {
			return fmt.Errorf("resource: cpu %q job heap out of order at %d", c.name, i)
		}
	}
	return nil
}

// AuditQuiescent is Audit plus the post-drain checks: no job on the
// processor and full speed restored (every brown-out reverted).
func (c *CPU) AuditQuiescent() error {
	if err := c.Audit(); err != nil {
		return err
	}
	if n := len(c.jobs); n != 0 {
		return fmt.Errorf("resource: cpu %q not quiescent (%d jobs active)", c.name, n)
	}
	if c.speed != 1 {
		return fmt.Errorf("resource: cpu %q speed %v after reverts, want 1", c.name, c.speed)
	}
	return nil
}

// jobHeap is a binary min-heap of jobs by value, ordered by finish virtual
// time.
type jobHeap []cpuJob

func (h *jobHeap) push(j cpuJob) {
	*h = append(*h, j)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if j.finishV >= hh[parent].finishV {
			break
		}
		hh[i] = hh[parent]
		i = parent
	}
	hh[i] = j
}

func (h *jobHeap) pop() cpuJob {
	old := *h
	top := old[0]
	last := len(old) - 1
	j := old[last]
	old[last] = cpuJob{}
	*h = old[:last]
	if last > 0 {
		old[0] = j
		(*h).siftDown(0)
	}
	return top
}

func (h jobHeap) siftDown(i int) {
	n := len(h)
	j := h[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && h[right].finishV < h[left].finishV {
			smallest = right
		}
		if h[smallest].finishV >= j.finishV {
			break
		}
		h[i] = h[smallest]
		i = smallest
	}
	h[i] = j
}
