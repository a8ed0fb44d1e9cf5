// Package adaptive implements elastic soft-resource reallocation: a
// policy-driven controller that resizes every soft pool in the topology
// mid-run under a total-units budget — the online counterpart of the
// paper's offline Algorithm 1, for the regime the paper leaves open:
// traffic that shifts faster than an offline recalibration. It moves units
// between the Apache worker pool, the Tomcat servlet threads, and the
// Tomcat→C-JDBC connection pools (whose resident middleware threads — the
// §III-B over-allocation cost — track every resize), trading them off
// under one budget.
//
// The paper's related work surveys feedback-control approaches and notes
// that "determining suitable parameters of control is a highly challenging
// task"; the TOP_JOB policy encodes the paper's own findings as the
// control law:
//
//   - Soft bottleneck (the §III-A signature): a pool pinned at capacity
//     with waiters while the hardware idles → grow that axis.
//   - Over-allocation (the §III-B signature): capacity far above the
//     window's peak occupancy → shrink toward the observed need, shedding
//     GC and scheduling overhead.
//
// Pools are resized in place (resource.Pool.Resize); no requests are
// dropped.
//
// Limitation (inherent, not incidental): once the system is deeply
// saturated, an over-allocated pool fills completely with queued jobs, so
// pool occupancy no longer distinguishes over-allocation from genuine
// need. The controller therefore shrinks reliably only while the system
// is near — not far past — the knee. This observability gap is exactly
// the paper's argument for the offline measurement-driven Algorithm 1
// (internal/core) over pure feedback control.
package adaptive

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/softres/ntier/internal/hw"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/resource"
	"github.com/softres/ntier/internal/testbed"
)

// Policy names an elastic reallocation policy.
type Policy string

// The built-in policies.
const (
	// PolicyStatic is the no-op baseline: no controller runs, the build-time
	// allocation holds for the whole trace.
	PolicyStatic Policy = "STATIC"
	// PolicyUniform splits the budget evenly across the three pool axes and
	// rebalances toward that split every interval.
	PolicyUniform Policy = "UNIFORM"
	// PolicyTopJob grows the pool axis behind the obs bottleneck verdict
	// (most saturated pool, ties to the downstream-most — the pool the
	// paper's Algorithm 1 would grow) and shrinks axes that idle far below
	// their capacity.
	PolicyTopJob Policy = "TOP_JOB"
	// PolicySoftmax apportions the budget across axes by softmax-weighted
	// marginal-goodput estimates from the calibrated MVA surrogate.
	PolicySoftmax Policy = "SOFTMAX"
)

// ParsePolicy resolves a policy name (case-insensitive).
func ParsePolicy(s string) (Policy, error) {
	switch p := Policy(strings.ToUpper(strings.TrimSpace(s))); p {
	case PolicyStatic, PolicyUniform, PolicyTopJob, PolicySoftmax:
		return p, nil
	default:
		return "", fmt.Errorf("adaptive: unknown policy %q (want STATIC, UNIFORM, TOP_JOB, or SOFTMAX)", s)
	}
}

// The three pool axes an allocation moves units between. Axis order is tier
// order (web upstream, connections downstream-most), which decision logs
// and arbitration iterate in.
type axis int

const (
	axisWeb  axis = iota // Apache worker pools (per web server)
	axisApp              // Tomcat servlet thread pools (per app server)
	axisConn             // Tomcat DB connection pools (per app server)
	numAxes
)

var axisNames = [numAxes]string{"web-threads", "app-threads", "app-conns"}

// The fixed parts of the control law; ElasticConfig holds the knobs.
const (
	// PeakHold is how long a window must spend in total at or above an
	// occupancy level for the level to count as the window's peak: the
	// occupancy a monitor on the paper's 1 s SysStat grid would expect to
	// see at least once.
	PeakHold = time.Second
	// MinPer and MaxPer bound every per-server pool capacity.
	MinPer = 2
	MaxPer = 2048
	// GrowFactor multiplies a bottlenecked axis's capacity under TOP_JOB.
	GrowFactor = 1.5
	// ShrinkMargin leaves headroom over the observed peak occupancy when
	// shrinking; shrinking triggers only when capacity exceeds
	// ShrinkTrigger times the peak.
	ShrinkMargin  = 1.25
	ShrinkTrigger = 2.0
	// Temperature is the SOFTMAX temperature in goodput units (req/s):
	// smaller values concentrate the budget on the best axis.
	Temperature = 5.0
)

// ElasticConfig tunes the elastic controller. Zero values take defaults.
type ElasticConfig struct {
	// Policy selects the decision rule (required; STATIC is rejected —
	// simply do not attach a controller for the static baseline).
	Policy Policy

	// Interval is the control period (default 20s).
	Interval time.Duration

	// Budget caps the total soft-resource units (sum of all pool
	// capacities across servers; default: the units of the build-time
	// allocation). The controller never allocates past it.
	Budget int

	// MaxStep bounds the per-server capacity change of one axis per
	// interval (default 16) — the rate limiter that keeps a misjudged
	// verdict from doubling a pool in one step.
	MaxStep int
	// Deadband is the hysteresis floor: per-server deltas smaller than
	// this are ignored (default 2), so the controller does not thrash
	// around a target.
	Deadband int
	// Cooldown is the minimum time between two resizes of the same axis
	// (default 2×Interval).
	Cooldown time.Duration

	// Goodput estimates an allocation's goodput at a closed-equivalent
	// population — SOFTMAX's marginal-gain oracle, typically a calibrated
	// search.Surrogate behind a closure. Required for SOFTMAX.
	Goodput func(soft testbed.SoftAlloc, users int) (float64, error)
	// UsersAt maps simulated time to the closed-equivalent population the
	// Goodput oracle is queried at — typically the arrival schedule's
	// known rate converted through rubbos.OpenEquivUsers. Required for
	// SOFTMAX.
	UsersAt func(at time.Duration) int
}

func (c *ElasticConfig) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = 20 * time.Second
	}
	if c.MaxStep <= 0 {
		c.MaxStep = 16
	}
	if c.Deadband <= 0 {
		c.Deadband = 2
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * c.Interval
	}
}

// ElasticDecision records one applied axis resize.
type ElasticDecision struct {
	At     time.Duration `json:"at"`
	Policy Policy        `json:"policy"`
	Axis   string        `json:"axis"`
	From   int           `json:"from"`  // per-server capacity before
	To     int           `json:"to"`    // per-server capacity after
	Units  int           `json:"units"` // total allocated units after
	Reason string        `json:"reason"`
}

// String renders one decision-log line.
func (d ElasticDecision) String() string {
	return fmt.Sprintf("%10v %-7s %-11s %4d -> %4d  units %4d  (%s)",
		d.At.Round(time.Millisecond), d.Policy, d.Axis, d.From, d.To, d.Units, d.Reason)
}

// FormatDecisions renders the decision log one line per decision. The
// output is a pure function of the decision slice, so identical runs (and
// journal-restored trials) produce byte-identical logs.
func FormatDecisions(ds []ElasticDecision) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ctlServer is one server the controller observes: its node's CPU and
// disk, its JVM's GC time, and the pools it governs, with every cumulative
// integral as it stood at the window start.
type ctlServer struct {
	node  *hw.Node
	tier  string
	gc    func() float64 // cumulative GC time integral (nil: no JVM)
	pools []*resource.Pool

	busy, gcTime, disk float64
	marks              []poolMark
}

// poolMark is one pool's integrals at the window start.
type poolMark struct {
	busy float64
	sat  time.Duration
	occ  []time.Duration
}

// integrals reads the server's cumulative CPU busy, GC and disk busy
// seconds (0 for a monitor the server lacks).
func (sv *ctlServer) integrals() (busy, gc, disk float64) {
	busy = sv.node.BusyIntegral()
	if sv.gc != nil {
		gc = sv.gc()
	}
	if d := sv.node.Disk(); d != nil {
		disk = d.BusyIntegral()
	}
	return busy, gc, disk
}

// ElasticController reallocates every soft pool of one testbed under a
// total-units budget.
type ElasticController struct {
	cfg    ElasticConfig
	tb     *testbed.Testbed
	soft   testbed.SoftAlloc
	budget int

	watched []ctlServer
	peak    [numAxes]int // each axis's per-server peak occupancy in the last window

	lastAct   [numAxes]time.Duration
	acted     [numAxes]bool
	decisions []ElasticDecision
}

// AttachElastic starts the elastic controller on a freshly built testbed.
// It must be called before the simulation runs the period it should govern.
func AttachElastic(tb *testbed.Testbed, cfg ElasticConfig) (*ElasticController, error) {
	cfg.applyDefaults()
	switch cfg.Policy {
	case PolicyUniform, PolicyTopJob:
	case PolicySoftmax:
		if cfg.Goodput == nil || cfg.UsersAt == nil {
			return nil, fmt.Errorf("adaptive: SOFTMAX needs both Goodput and UsersAt oracles")
		}
	case PolicyStatic:
		return nil, fmt.Errorf("adaptive: STATIC is the no-controller baseline; do not attach")
	default:
		return nil, fmt.Errorf("adaptive: unknown policy %q", cfg.Policy)
	}

	c := &ElasticController{cfg: cfg, tb: tb, soft: tb.Opts.Soft}
	if c.budget = cfg.Budget; c.budget <= 0 {
		c.budget = c.soft.Units(c.tb.Opts.Hardware)
	}

	for _, a := range tb.Apaches {
		c.watched = append(c.watched, ctlServer{node: a.Node, tier: "apache", pools: []*resource.Pool{a.Workers}})
	}
	for _, t := range tb.Tomcats {
		c.watched = append(c.watched, ctlServer{node: t.Node, tier: "tomcat", gc: t.JVM.GCTimeIntegral,
			pools: []*resource.Pool{t.Threads, t.Conns}})
	}
	for _, cj := range tb.CJDBCs {
		c.watched = append(c.watched, ctlServer{node: cj.Node, tier: "cjdbc", gc: cj.JVM.GCTimeIntegral})
	}
	for _, m := range tb.MySQLs {
		c.watched = append(c.watched, ctlServer{node: m.Node, tier: "mysql"})
	}
	c.resetWindow()
	c.scheduleControl()
	return c, nil
}

// Decisions returns the resize actions applied so far.
func (c *ElasticController) Decisions() []ElasticDecision { return c.decisions }

// servers returns how many per-server pools an axis spans.
func (c *ElasticController) servers(ax axis) int {
	if ax == axisWeb {
		return c.tb.Opts.Hardware.Web
	}
	return c.tb.Opts.Hardware.App
}

func axisGet(s testbed.SoftAlloc, ax axis) int {
	switch ax {
	case axisWeb:
		return s.WebThreads
	case axisApp:
		return s.AppThreads
	default:
		return s.AppConns
	}
}

func axisSet(s *testbed.SoftAlloc, ax axis, v int) {
	switch ax {
	case axisWeb:
		s.WebThreads = v
	case axisApp:
		s.AppThreads = v
	default:
		s.AppConns = v
	}
}

// resetWindow re-baselines every cumulative integral.
func (c *ElasticController) resetWindow() {
	for i := range c.watched {
		sv := &c.watched[i]
		sv.busy, sv.gcTime, sv.disk = sv.integrals()
		sv.marks = sv.marks[:0]
		for _, pl := range sv.pools {
			sv.marks = append(sv.marks, poolMark{busy: pl.BusyIntegral(), sat: pl.SaturatedIntegral(), occ: pl.Stats().OccTime})
		}
	}
}

func (c *ElasticController) scheduleControl() {
	c.tb.Env.After(c.cfg.Interval, func() {
		c.control()
		c.scheduleControl()
	})
}

// summarize reduces the window to the analyzer's per-trial aggregate,
// through the builder experiment.Summarize uses, and records each axis's
// peak occupancy. ok is false when a monitor reset (the ramp-end
// ResetStats) fell inside the window: the integrals then mix two
// baselines, and some pool's occupancy histogram no longer covers exactly
// the window. The testbed resets every monitor at once, so the pools'
// histograms speak for the nodes' integrals too.
func (c *ElasticController) summarize() (s obs.TrialSummary, ok bool) {
	secs := c.cfg.Interval.Seconds()
	var peak [numAxes]int
	for i := range c.watched {
		sv := &c.watched[i]
		busy, gc, disk := sv.integrals()
		pools := make([]resource.PoolStats, len(sv.pools))
		for j, pl := range sv.pools {
			m, st := sv.marks[j], pl.Stats()
			b, sat := pl.BusyIntegral(), pl.SaturatedIntegral()
			var covered time.Duration
			for l := range st.OccTime {
				if l < len(m.occ) {
					st.OccTime[l] -= m.occ[l]
				}
				covered += st.OccTime[l]
			}
			if covered != c.cfg.Interval {
				return s, false
			}
			st.Utilization = (b - m.busy) / secs / float64(st.Capacity)
			st.Saturated = (sat - m.sat).Seconds() / secs
			pools[j] = st
			ax, _ := axisOf(st.Name)
			peak[ax] = max(peak[ax], heldPeak(st.OccTime))
		}
		cores := float64(sv.node.Spec().Cores)
		s.AddServer(sv.node.Name(), sv.tier, (busy-sv.busy)/secs/cores, (gc-sv.gcTime)/secs, (disk-sv.disk)/secs, pools)
	}
	c.peak = peak
	return s, true
}

// heldPeak returns the highest occupancy level at or above which a
// window's occupancy histogram spent at least PeakHold in total.
func heldPeak(occ []time.Duration) int {
	var held time.Duration
	for l := len(occ) - 1; l > 0; l-- {
		if held += occ[l]; held >= PeakHold {
			return l
		}
	}
	return 0
}

// axisOf maps a pool name to its axis by path suffix.
func axisOf(name string) (axis, bool) {
	switch {
	case strings.HasSuffix(name, "/workers"):
		return axisWeb, true
	case strings.HasSuffix(name, "/threads"):
		return axisApp, true
	case strings.HasSuffix(name, "/conns"):
		return axisConn, true
	}
	return 0, false
}

// control runs one policy step and resets the window.
func (c *ElasticController) control() {
	defer c.resetWindow()
	summary, ok := c.summarize()
	if !ok {
		return // monitor reset mid-window: observations unusable
	}
	verdict := obs.Judge(summary, obs.JudgeConfig{})

	var targets [numAxes]int
	var reasons [numAxes]string
	for ax := range targets {
		targets[ax] = -1
	}
	switch c.cfg.Policy {
	case PolicyUniform:
		c.planUniform(&targets, &reasons)
	case PolicyTopJob:
		c.planTopJob(verdict, &targets, &reasons)
	case PolicySoftmax:
		c.planSoftmax(&targets, &reasons)
	}
	c.applyTargets(targets, reasons)
}

// planUniform rebalances toward an even three-way budget split.
func (c *ElasticController) planUniform(targets *[numAxes]int, reasons *[numAxes]string) {
	share := c.budget / int(numAxes)
	for ax := axisWeb; ax < numAxes; ax++ {
		targets[ax] = share / c.servers(ax)
		reasons[ax] = fmt.Sprintf("uniform share %d units", share)
	}
}

// planTopJob grows the axis behind the bottleneck verdict and shrinks axes
// idling far below capacity. When the budget is exhausted, the most
// over-provisioned other axis donates units in the same step.
func (c *ElasticController) planTopJob(v obs.Verdict, targets *[numAxes]int, reasons *[numAxes]string) {
	if v.SoftLimited() {
		blame := v.Blamed()
		ax, ok := axisOf(blame.Name)
		if !ok {
			return
		}
		cur := axisGet(c.soft, ax)
		targets[ax] = int(float64(cur)*GrowFactor) + 1
		reasons[ax] = fmt.Sprintf("soft-bottleneck %s sat %.0f%%", blame.Name, blame.Saturated*100)

		// Donate from the most over-provisioned other axis if growth would
		// blow the budget.
		grown := c.soft
		axisSet(&grown, ax, targets[ax])
		if grown.Units(c.tb.Opts.Hardware) > c.budget {
			donor, headroom := axis(-1), 0
			for d := axisWeb; d < numAxes; d++ {
				if d == ax {
					continue
				}
				if h := axisGet(c.soft, d) - c.peak[d]; h > headroom {
					donor, headroom = d, h
				}
			}
			if donor >= 0 {
				targets[donor] = int(float64(c.peak[donor])*ShrinkMargin) + 1
				reasons[donor] = fmt.Sprintf("donate to %s", axisNames[ax])
			}
		}
		return
	}
	// No soft bottleneck: release what the window did not use, following
	// the load back down (and shedding the §III-B GC cost of idle pools).
	for ax := axisWeb; ax < numAxes; ax++ {
		cur, peak := axisGet(c.soft, ax), c.peak[ax]
		if float64(cur) > ShrinkTrigger*float64(peak) {
			targets[ax] = int(float64(peak)*ShrinkMargin) + 1
			why := "idle"
			if v.HardwareLimited() {
				why = v.SaturatedHW[0].String()
			}
			reasons[ax] = fmt.Sprintf("over-allocation (%s, peak %d)", why, peak)
		}
	}
}

// planSoftmax apportions the budget by softmax-weighted marginal goodput.
func (c *ElasticController) planSoftmax(targets *[numAxes]int, reasons *[numAxes]string) {
	users := c.cfg.UsersAt(c.tb.Env.Now())
	if users <= 0 {
		return
	}
	base, err := c.cfg.Goodput(c.soft, users)
	if err != nil {
		return
	}
	var gains [numAxes]float64
	for ax := axisWeb; ax < numAxes; ax++ {
		probe := c.soft
		grown := axisGet(probe, ax) + c.cfg.MaxStep
		if grown > MaxPer {
			grown = MaxPer
		}
		axisSet(&probe, ax, grown)
		g, err := c.cfg.Goodput(probe, users)
		if err != nil {
			return
		}
		gains[ax] = g - base
	}
	var sum float64
	var weights [numAxes]float64
	for ax := axisWeb; ax < numAxes; ax++ {
		weights[ax] = math.Exp(gains[ax] / Temperature)
		sum += weights[ax]
	}
	for ax := axisWeb; ax < numAxes; ax++ {
		w := weights[ax] / sum
		targets[ax] = int(w*float64(c.budget)) / c.servers(ax)
		reasons[ax] = fmt.Sprintf("softmax w=%.2f gain=%+.1f req/s @%d users", w, gains[ax], users)
	}
}

// applyTargets arbitrates the policy's desired per-server capacities
// against the rate limit, hysteresis deadband, per-axis cooldown, bounds,
// and the budget, then applies the surviving resizes in one live step.
// Shrinks are applied before grows so freed units fund same-step growth.
func (c *ElasticController) applyTargets(targets [numAxes]int, reasons [numAxes]string) {
	now := c.tb.Env.Now()
	next := c.soft
	var pending []ElasticDecision

	step := func(ax axis, wantShrink bool) {
		t := targets[ax]
		if t < 0 {
			return
		}
		cur := axisGet(next, ax)
		if t < MinPer {
			t = MinPer
		}
		if t > MaxPer {
			t = MaxPer
		}
		delta := t - cur
		if wantShrink != (delta < 0) {
			return
		}
		if delta > c.cfg.MaxStep {
			delta = c.cfg.MaxStep
		}
		if delta < -c.cfg.MaxStep {
			delta = -c.cfg.MaxStep
		}
		if delta > -c.cfg.Deadband && delta < c.cfg.Deadband {
			return // hysteresis: too small to act on
		}
		if c.acted[ax] && now-c.lastAct[ax] < c.cfg.Cooldown {
			return // cooldown: this axis moved too recently
		}
		to := cur + delta
		trial := next
		axisSet(&trial, ax, to)
		if over := trial.Units(c.tb.Opts.Hardware) - c.budget; over > 0 {
			// Trim the growth to what the budget still covers.
			to -= (over + c.servers(ax) - 1) / c.servers(ax)
			if to-cur < c.cfg.Deadband {
				return
			}
			axisSet(&trial, ax, to)
		}
		next = trial
		pending = append(pending, ElasticDecision{
			At: now, Policy: c.cfg.Policy, Axis: axisNames[ax],
			From: cur, To: to, Units: next.Units(c.tb.Opts.Hardware), Reason: reasons[ax],
		})
		c.lastAct[ax], c.acted[ax] = now, true
	}

	for ax := axisWeb; ax < numAxes; ax++ {
		step(ax, true)
	}
	for ax := axisWeb; ax < numAxes; ax++ {
		step(ax, false)
	}
	if next == c.soft {
		return
	}
	if err := c.tb.ApplySoft(next); err != nil {
		return // clamps keep allocations valid; never applies partially
	}
	c.soft = next
	c.decisions = append(c.decisions, pending...)
}
