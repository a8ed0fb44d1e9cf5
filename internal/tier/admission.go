package tier

// Adaptive admission control at the web tier. The static MaxQueue check in
// ResilienceConfig sheds only once the worker queue is already deep — by
// then every admitted request drags seconds of queueing delay behind it. The
// controller here is CoDel-style: it watches the *minimum* worker-pool wait
// over a control interval (the minimum, not the mean, so a transient burst
// that drains by itself does not trigger shedding) and, while that standing
// delay exceeds the target, raises a drop probability applied to arriving
// requests before they queue. When the standing delay falls back under the
// target the drop level decays away. Write-class interactions are protected:
// they are dropped at max(0, 2p-1), so browse traffic degrades first and
// writes survive until the controller is saturated.

import (
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/rng"
)

// The controller's calibration, for overload protection.
const (
	// admTarget is the acceptable standing worker-pool wait.
	admTarget = 50 * time.Millisecond
	// admInterval is the control-loop period.
	admInterval = 500 * time.Millisecond
	// admMaxShed caps the drop probability: even saturated, a trickle of
	// requests is admitted so the controller keeps observing real waits.
	admMaxShed = 0.95
)

// Controller dynamics: multiplicative increase while the backlog is growing,
// hold while an over-target backlog is already draining, multiplicative decay
// once the standing wait is back under target.
const (
	admGrowFactor  = 1.5
	admGrowStep    = 0.02
	admDecayFactor = 0.7
	admFloor       = 0.005 // below this the level snaps to zero
)

// admission is the per-server controller state. All mutation happens on the
// DES scheduler (request procs and the control-tick event), so no locking is
// needed and replays are exact.
type admission struct {
	env    *des.Env
	r      *rng.Rand
	queued func() int // pure read of the guarded pool's wait-queue depth

	level      float64 // current drop probability for browse traffic
	sawWait    bool
	minWait    time.Duration // minimum observed wait this interval
	prevQueued int           // wait-queue depth at the previous tick
}

// newAdmission wires a controller and schedules its control loop; r must be
// a dedicated stream so drop draws never shift other jitter draws.
func newAdmission(env *des.Env, r *rng.Rand, queued func() int) *admission {
	ad := &admission{env: env, r: r, queued: queued}
	ad.arm()
	return ad
}

// arm schedules the next control tick.
func (ad *admission) arm() {
	ad.env.After(admInterval, func() {
		ad.control()
		ad.arm()
	})
}

// control closes one interval: decide overload from the interval's minimum
// wait (or, when no request got through to a worker at all, from the queue
// depth — a fully wedged pool reports no waits but is maximally overloaded),
// then adjust the drop level. While a standing queue drains, every admitted
// request still waits over target even though the current level has already
// cut arrivals below capacity; growing through the whole drain would
// overshoot far past the equilibrium level and over-shed (hysteresis). The
// queue-trend gate breaks that: the level grows only while the backlog is
// not shrinking, holds while an over-target backlog drains, and decays once
// the standing wait is back under target.
func (ad *admission) control() {
	queued := ad.queued()
	overloaded := (ad.sawWait && ad.minWait > admTarget) ||
		(!ad.sawWait && queued > 0)
	switch {
	case overloaded && queued >= ad.prevQueued:
		ad.level = ad.level*admGrowFactor + admGrowStep
		if ad.level > admMaxShed {
			ad.level = admMaxShed
		}
	case overloaded:
		// Backlog already shrinking: the current level is working; hold.
	default:
		ad.level *= admDecayFactor
		if ad.level < admFloor {
			ad.level = 0
		}
	}
	ad.prevQueued = queued
	ad.sawWait = false
	ad.minWait = 0
}

// observeWait records one request's worker-pool wait.
func (ad *admission) observeWait(d time.Duration) {
	if !ad.sawWait || d < ad.minWait {
		ad.minWait = d
		ad.sawWait = true
	}
}

// Level returns the current drop probability for browse traffic.
func (ad *admission) Level() float64 { return ad.level }

// drop decides whether to shed an arriving request of the given class.
func (ad *admission) drop(write bool) bool {
	p := ad.level
	if write {
		p = 2*p - 1
	}
	if p <= 0 {
		return false
	}
	return ad.r.Float64() < p
}
