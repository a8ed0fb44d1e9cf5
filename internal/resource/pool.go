// Package resource provides the resource models the n-tier simulator is
// built from: FIFO pools (the paper's "soft resources" — thread
// pools and connection pools) and a processor-sharing CPU (the hardware
// resource whose saturation the paper's algorithm hunts for).
package resource

import (
	"fmt"
	"time"

	"github.com/softres/ntier/internal/des"
)

// waiter is one process queued for a unit. Grant state is decided by the
// releaser (or the timeout event) before the process resumes. Waiter
// records are recycled through the pool's free list — at 10⁵-client scale
// every acquisition would otherwise allocate. A record gets its des.Timer
// the first time it arms a timeout, and keeps it through reuse.
type waiter struct {
	proc  *des.Proc
	since time.Duration // when the process queued
	timer *des.Timer    // nil until the record's first timed wait
	// granted is decided before the process resumes.
	granted bool
}

// Pool is a counted resource with FIFO blocking acquisition, modeling a
// thread pool or a connection pool. A unit must be released exactly once per
// successful acquisition.
//
// The pool records the statistics the paper's methodology needs: average
// utilization, time-at-occupancy (for utilization-density graphs), the
// fraction of time the pool was saturated (all units busy with waiters
// queued — the soft-resource analogue of 100% hardware utilization), and
// waiting-time statistics.
//
// Two fault/resilience extensions ride on the same FIFO machinery: an
// acquire timeout bounds the queueing delay (the per-hop acquire timeout
// of the resilience layer), and Leak/Restore model connection-leak faults
// that bleed units out of the pool without going through a holder.
//
// A waiter waits suspended (AcquireOrSuspend, then Resolve at its wake),
// holding no coroutine.
type Pool struct {
	env      *des.Env
	name     string
	capacity int

	inUse int
	// The wait queue is a sliding window over waiters: the live FIFO is
	// waiters[wHead:]. Grants pop the head in O(1) amortized — a 10⁵-deep
	// overload queue must not pay a copy of the whole queue per grant.
	waiters []*waiter
	wHead   int
	freeW   []*waiter
	// woken holds the records of resolved waits whose processes have not
	// yet run again to Resolve them.
	woken []*waiter

	// leaked units are counted in inUse but held by no process (a leak
	// fault); leakPending leaks wait for the next release to swallow.
	leaked      int
	leakPending int

	lastChange   time.Duration
	statsStart   time.Duration
	busyIntegral float64         // unit-seconds of occupancy
	occTime      []time.Duration // time spent at each occupancy level
	satTime      time.Duration   // time with inUse >= capacity and waiters queued
	fullTime     time.Duration   // time with inUse >= capacity (> after a shrink)

	grants    uint64
	waited    uint64
	timeouts  uint64
	totalWait time.Duration
	maxQueue  int
}

// NewPool creates a pool of `capacity` units. Capacity must be positive.
func NewPool(env *des.Env, name string, capacity int) *Pool {
	if capacity <= 0 {
		panic(fmt.Sprintf("resource: pool %q with capacity %d", name, capacity))
	}
	return &Pool{
		env:      env,
		name:     name,
		capacity: capacity,
		occTime:  make([]time.Duration, capacity+1),
	}
}

// Name returns the pool's diagnostic name.
func (pl *Pool) Name() string { return pl.name }

// Capacity returns the configured number of units.
func (pl *Pool) Capacity() int { return pl.capacity }

// InUse returns the number of units currently held (including leaked units).
// It can exceed Capacity while the pool drains toward a smaller capacity
// after Resize.
func (pl *Pool) InUse() int { return pl.inUse }

// Queued returns the number of processes waiting for a unit.
func (pl *Pool) Queued() int { return len(pl.waiters) - pl.wHead }

// Leaked returns the number of units currently bled out by leak faults.
func (pl *Pool) Leaked() int { return pl.leaked }

// account integrates occupancy state up to the current time. It is called
// only on state changes (grants, releases, leaks, resizes, resets) — never
// from reads — so the accumulation path is a function of the pool's event
// sequence alone and samplers cannot alter it (see pending).
func (pl *Pool) account() {
	now := pl.env.Now()
	dt := now - pl.lastChange
	if dt > 0 {
		pl.busyIntegral += float64(pl.inUse) * dt.Seconds()
		pl.occTime[pl.inUse] += dt
		if pl.inUse >= pl.capacity { // >= covers over-full states after a shrink
			pl.fullTime += dt
			if pl.Queued() > 0 {
				pl.satTime += dt
			}
		}
	}
	pl.lastChange = now
}

// getWaiter takes a waiter record off the free list (or allocates one) and
// initializes it for p.
func (pl *Pool) getWaiter(p *des.Proc) *waiter {
	var w *waiter
	if n := len(pl.freeW); n > 0 {
		w = pl.freeW[n-1]
		pl.freeW[n-1] = nil
		pl.freeW = pl.freeW[:n-1]
	} else {
		w = &waiter{}
	}
	w.proc = p
	w.granted = false
	return w
}

// putWaiter recycles a waiter record once its acquisition resolved and the
// owning process has read the grant decision. Its timer, if any, is always
// stopped by then (grants stop it; a fired timeout disarms itself).
func (pl *Pool) putWaiter(w *waiter) {
	w.proc = nil
	pl.freeW = append(pl.freeW, w)
}

// removeWaiter deletes w from the queue by identity, preserving order.
func (pl *Pool) removeWaiter(w *waiter) bool {
	for i := pl.wHead; i < len(pl.waiters); i++ {
		if pl.waiters[i] == w {
			copy(pl.waiters[i:], pl.waiters[i+1:])
			pl.waiters = pl.waiters[:len(pl.waiters)-1]
			return true
		}
	}
	return false
}

// popWaiter grants the head waiter: it is removed from the queue, its
// timeout (if any) canceled, and its process resumed. The caller has already
// arranged the unit accounting.
func (pl *Pool) popWaiter() *waiter {
	w := pl.waiters[pl.wHead]
	pl.waiters[pl.wHead] = nil
	pl.wHead++
	if pl.wHead*2 >= len(pl.waiters) && pl.wHead >= 32 {
		n := copy(pl.waiters, pl.waiters[pl.wHead:])
		for i := n; i < len(pl.waiters); i++ {
			pl.waiters[i] = nil
		}
		pl.waiters = pl.waiters[:n]
		pl.wHead = 0
	}
	if w.timer != nil {
		w.timer.Stop()
	}
	w.granted = true
	pl.wake(w)
	return w
}

// wake resumes the process of a waiter whose acquisition just resolved.
func (pl *Pool) wake(w *waiter) {
	pl.woken = append(pl.woken, w)
	w.proc.Unpark()
}

// enqueue queues the caller at the tail, arming a timeout if d > 0. The
// caller then waits until wake, and resolves the wait with Resolve. The window grows by doubling, not append's 1.25× steps: a
// 10⁵-deep queue would otherwise copy itself dozens of times.
func (pl *Pool) enqueue(p *des.Proc, d time.Duration) {
	pl.account()
	w := pl.getWaiter(p)
	w.since = pl.env.Now()
	if n := len(pl.waiters); n == cap(pl.waiters) {
		pl.waiters = append(make([]*waiter, 0, max(2*n, 16)), pl.waiters...)
	}
	pl.waiters = append(pl.waiters, w)
	if q := pl.Queued(); q > pl.maxQueue {
		pl.maxQueue = q
	}
	if d > 0 {
		if w.timer == nil {
			w.timer = pl.env.NewTimer(func() { pl.expire(w) })
		}
		w.timer.Arm(d)
	}
}

// expire handles a timeout firing: if the waiter is still queued it is
// removed and resumed ungranted. A waiter granted at the same instant has
// already been removed (and its timer stopped), making this a no-op.
func (pl *Pool) expire(w *waiter) {
	if w.granted {
		return
	}
	pl.account()
	if pl.removeWaiter(w) {
		pl.wake(w)
	}
}

// AcquireOrSuspend obtains one unit for p: it either takes a unit now and
// returns true, or queues p in FIFO order (giving up after timeout, if
// positive), suspends it (des.Proc.Suspend) and returns false. The caller
// must then end its step; at the grant or the timeout it calls Resolve.
func (pl *Pool) AcquireOrSuspend(p *des.Proc, timeout time.Duration) bool {
	if pl.TryAcquire() {
		return true
	}
	pl.enqueue(p, timeout)
	p.Suspend()
	return false
}

// Resolve completes the acquisition p began with AcquireOrSuspend, on the
// run or step its grant or timeout woke. It reports whether a unit was
// obtained and the time spent waiting; p queued at Now() minus that wait. It reads the outcome from p's waiter record, recycles the
// record, and books the wait: a grant (the releaser already transferred
// the unit, so inUse stays at its level on p's behalf) or a timeout.
// Resolve panics if p has no resolved acquisition here.
func (pl *Pool) Resolve(p *des.Proc) (bool, time.Duration) {
	for i, w := range pl.woken {
		if w.proc != p {
			continue
		}
		last := len(pl.woken) - 1
		pl.woken[i], pl.woken[last] = pl.woken[last], nil
		pl.woken = pl.woken[:last]
		granted, wait := w.granted, pl.env.Now()-w.since
		pl.putWaiter(w)
		if !granted {
			pl.timeouts++
			return false, wait
		}
		pl.waited++
		pl.totalWait += wait
		pl.grants++
		return true, wait
	}
	panic(fmt.Sprintf("resource: pool %q: Resolve by process %q with no resolved acquisition", pl.name, p.Name()))
}

// TryAcquire obtains a unit without blocking, returning false if none is
// free or other processes are already queued (FIFO fairness).
func (pl *Pool) TryAcquire() bool {
	if pl.inUse >= pl.capacity || pl.Queued() > 0 {
		return false
	}
	pl.account()
	pl.inUse++
	pl.grants++
	return true
}

// Release returns one unit to the pool, handing it directly to the oldest
// waiter if any. It panics if no unit is held. A pending leak fault swallows
// the unit instead (the connection died in the holder's hands).
func (pl *Pool) Release() {
	if pl.inUse <= 0 {
		panic(fmt.Sprintf("resource: pool %q released with none in use", pl.name))
	}
	pl.account()
	if pl.leakPending > 0 {
		// The unit transfers to the fault: occupancy stays constant.
		pl.leakPending--
		pl.leaked++
		return
	}
	if pl.Queued() > 0 && pl.inUse <= pl.capacity {
		// Transfer the unit: occupancy stays constant, waiter resumes.
		pl.popWaiter()
		return
	}
	// No waiter, or the pool is draining toward a smaller capacity.
	pl.inUse--
}

// Leak bleeds n units out of the pool — a connection-leak fault. Free units
// are taken immediately; the remainder become pending and swallow the next
// releases. Leaked units count as in use until Restore returns them.
func (pl *Pool) Leak(n int) {
	if n <= 0 {
		return
	}
	pl.account()
	for ; n > 0; n-- {
		if pl.inUse < pl.capacity && pl.Queued() == 0 {
			pl.inUse++
			pl.leaked++
		} else {
			pl.leakPending++
		}
	}
}

// Restore undoes up to n leaked units (the leak fault healing): pending
// leaks are canceled first, then leaked units return to the pool, going to
// queued waiters in FIFO order.
func (pl *Pool) Restore(n int) {
	if n <= 0 {
		return
	}
	pl.account()
	if pl.leakPending > 0 {
		m := pl.leakPending
		if m > n {
			m = n
		}
		pl.leakPending -= m
		n -= m
	}
	for ; n > 0 && pl.leaked > 0; n-- {
		pl.leaked--
		if pl.Queued() > 0 && pl.inUse <= pl.capacity {
			pl.popWaiter()
			continue
		}
		pl.inUse--
	}
}

// Resize changes the pool's capacity at runtime — the primitive behind
// dynamic soft-resource adaptation. Growing the pool admits queued waiters
// immediately; shrinking it below the current occupancy lets the excess
// drain as units are released (no unit is revoked mid-use). Statistics for
// occupancy levels above the new capacity are retained. Capacity must stay
// positive.
func (pl *Pool) Resize(capacity int) {
	if capacity <= 0 {
		panic(fmt.Sprintf("resource: pool %q resized to %d", pl.name, capacity))
	}
	pl.account()
	pl.capacity = capacity
	for len(pl.occTime) <= capacity {
		pl.occTime = append(pl.occTime, 0)
	}
	// Admit waiters into newly available units.
	for pl.Queued() > 0 && pl.inUse < pl.capacity {
		pl.inUse++
		pl.popWaiter()
	}
}

// ResetStats discards accumulated statistics, starting a fresh measurement
// interval at the current time (used to exclude ramp-up).
func (pl *Pool) ResetStats() {
	pl.account()
	pl.statsStart = pl.env.Now()
	pl.busyIntegral = 0
	for i := range pl.occTime {
		pl.occTime[i] = 0
	}
	pl.satTime = 0
	pl.fullTime = 0
	pl.grants = 0
	pl.waited = 0
	pl.timeouts = 0
	pl.totalWait = 0
	pl.maxQueue = pl.Queued()
}

// PoolStats is a snapshot of a pool's accumulated statistics.
type PoolStats struct {
	Name     string
	Capacity int
	// Utilization is the mean in-use fraction over the interval relative
	// to the current capacity; it can exceed 1 across an interval that
	// included over-full drain states after a shrink.
	Utilization float64
	Full        float64       // fraction of time all units were busy (inUse >= capacity)
	Saturated   float64       // fraction of time full AND waiters queued
	Grants      uint64        // successful acquisitions
	Waited      uint64        // acquisitions that had to queue
	Timeouts    uint64        // acquisitions abandoned at the timeout
	MeanWait    time.Duration // mean wait over all grants
	MaxQueue    int           // deepest wait queue observed
	Leaked      int           // units currently bled out by leak faults
	// OccTime is the time spent at each occupancy level. Its length is one
	// more than the highest capacity the pool has had: after a shrink,
	// indexes above Capacity record the retained over-full drain time.
	OccTime []time.Duration
}

// pending returns the occupancy increments accrued since the last state
// change without storing them — the pure-read counterpart of account. dt is
// the un-integrated interval, busy the unit-seconds it contributes, and
// full/sat the saturation time it contributes.
func (pl *Pool) pending() (dt time.Duration, busy float64, full, sat time.Duration) {
	dt = pl.env.Now() - pl.lastChange
	if dt > 0 {
		busy = float64(pl.inUse) * dt.Seconds()
		if pl.inUse >= pl.capacity {
			full = dt
			if pl.Queued() > 0 {
				sat = dt
			}
		}
	}
	return dt, busy, full, sat
}

// Stats returns a snapshot integrated up to now. Pure read: it never
// mutates the pool, so samplers may call it at any simulated instant
// without perturbing the run.
func (pl *Pool) Stats() PoolStats {
	dt, busy, full, sat := pl.pending()
	elapsed := (pl.env.Now() - pl.statsStart).Seconds()
	s := PoolStats{
		Name:     pl.name,
		Capacity: pl.capacity,
		Grants:   pl.grants,
		Waited:   pl.waited,
		Timeouts: pl.timeouts,
		MaxQueue: pl.maxQueue,
		Leaked:   pl.leaked,
		OccTime:  append([]time.Duration(nil), pl.occTime...),
	}
	if dt > 0 {
		s.OccTime[pl.inUse] += dt
	}
	if elapsed > 0 {
		s.Utilization = (pl.busyIntegral + busy) / elapsed / float64(pl.capacity)
		s.Full = (pl.fullTime + full).Seconds() / elapsed
		s.Saturated = (pl.satTime + sat).Seconds() / elapsed
	}
	if pl.grants > 0 {
		s.MeanWait = time.Duration(int64(pl.totalWait) / int64(pl.grants))
	}
	return s
}

// BusyIntegral returns accumulated unit-seconds of occupancy; window
// samplers diff successive readings to compute per-window utilization.
// Pure read: never mutates the pool.
func (pl *Pool) BusyIntegral() float64 {
	_, busy, _, _ := pl.pending()
	return pl.busyIntegral + busy
}

// SaturatedIntegral returns the accumulated time the pool spent full with
// waiters queued; window samplers diff successive readings to compute
// per-window saturation. Pure read: never mutates the pool.
func (pl *Pool) SaturatedIntegral() time.Duration {
	_, _, _, sat := pl.pending()
	return pl.satTime + sat
}

// Audit checks the pool's conservation invariants: every counter
// non-negative, leaked units covered by in-use units, waits covered by
// grants, and the occupancy histogram accounting for every nanosecond
// since the last stats reset (the integration in account is exact integer
// arithmetic, so the check is an equality, not a tolerance). Pure read,
// cheap enough for testbed.Testbed.Audit to run at every trial's horizon.
func (pl *Pool) Audit() error {
	switch {
	case pl.inUse < 0:
		return fmt.Errorf("resource: pool %q has %d units in use", pl.name, pl.inUse)
	case pl.leaked < 0 || pl.leakPending < 0:
		return fmt.Errorf("resource: pool %q leak counters negative (leaked=%d pending=%d)", pl.name, pl.leaked, pl.leakPending)
	case pl.leaked > pl.inUse:
		return fmt.Errorf("resource: pool %q leaked %d units but only %d in use", pl.name, pl.leaked, pl.inUse)
	case pl.busyIntegral < 0 || pl.totalWait < 0 || pl.satTime < 0 || pl.fullTime < 0:
		return fmt.Errorf("resource: pool %q accumulated negative statistics", pl.name)
	case pl.waited > pl.grants:
		return fmt.Errorf("resource: pool %q waited %d times over %d grants", pl.name, pl.waited, pl.grants)
	}
	var sum time.Duration
	for level, d := range pl.occTime {
		if d < 0 {
			return fmt.Errorf("resource: pool %q spent %v at occupancy %d", pl.name, d, level)
		}
		sum += d
	}
	sum += pl.env.Now() - pl.lastChange // un-integrated tail (see pending)
	if elapsed := pl.env.Now() - pl.statsStart; sum != elapsed {
		return fmt.Errorf("resource: pool %q occupancy histogram sums to %v over a %v interval", pl.name, sum, elapsed)
	}
	return nil
}

// AuditQuiescent is Audit plus the post-drain checks a trial's quiescent
// audit runs once every fault has reverted and the workload has drained: no unit held,
// no waiter parked, and no leak outstanding — the pool's full capacity is
// back in service.
func (pl *Pool) AuditQuiescent() error {
	if err := pl.Audit(); err != nil {
		return err
	}
	if pl.leaked != 0 || pl.leakPending != 0 {
		return fmt.Errorf("resource: pool %q still leaking after reverts (leaked=%d pending=%d)", pl.name, pl.leaked, pl.leakPending)
	}
	if pl.inUse != 0 || pl.Queued() != 0 || len(pl.woken) != 0 {
		return fmt.Errorf("resource: pool %q not quiescent (inUse=%d queued=%d woken=%d)", pl.name, pl.inUse, pl.Queued(), len(pl.woken))
	}
	return nil
}
