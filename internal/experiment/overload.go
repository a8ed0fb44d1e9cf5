package experiment

// Overload experiments: open-system trials where offered load is set by an
// arrival process instead of a user population, so it can exceed capacity.
// OverloadSweep produces the goodput-vs-offered-rate curve (the saturation
// figure a closed-loop sweep cannot draw), and RunFlashCrowd measures how a
// deployment absorbs and drains a transient arrival spike.

import (
	"fmt"
	"io"
	"time"

	"github.com/softres/ntier/internal/tier"
	"github.com/softres/ntier/internal/trace"
)

// OverloadProtection returns the overload-survival policy: a bounded accept
// backlog that drops arrivals at no CPU cost, the adaptive CoDel-style
// admission controller at the web tier, a tight static queue bound as its
// burst backstop, and a cheap degraded response for everything shed. Pair
// it with RunConfig.Deadline for deadline propagation down the chain.
//
// The backlog is Linux's long-standing SOMAXCONN default, 128. It bounds
// the degraded responses sharing Apache's CPU at any offered load (to
// 128-50 = 78 once the worker queue is at MaxQueue), so the served
// requests keep their share of it: no receive livelock.
//
// Deliberately absent are the fault-recovery mechanisms of
// DefaultResilienceConfig: under *sustained* overload, acquire timeouts and
// retries convert queueing into mass error responses and duplicated work
// (each timed-out request has already consumed its queue slot and often its
// service), collapsing goodput far below what plain shedding at the front
// door achieves. Those mechanisms are tuned for partial faults — crashed or
// degraded servers — not for offered load beyond capacity.
func OverloadProtection() *tier.ResilienceConfig {
	return &tier.ResilienceConfig{
		Admission:  tier.DefaultAdmissionConfig(),
		MaxQueue:   50,
		Backlog:    128,
		DegradedMS: 0.05,
	}
}

// OverloadCurve is one goodput-vs-offered-rate series. Like Curve, a
// contained per-trial failure leaves a nil Results entry and the error in
// Errs.
type OverloadCurve struct {
	Label   string
	Rates   []float64 // offered load per point (req/s)
	Results []*Result
	Errs    []error
}

// Err returns the first per-trial failure in rate order, or nil.
func (c *OverloadCurve) Err() error {
	for i, e := range c.Errs {
		if e != nil {
			return fmt.Errorf("experiment: rate %g: %w", c.Rates[i], e)
		}
	}
	return nil
}

// Goodputs returns the goodput series at the threshold (zero for failed
// points).
func (c *OverloadCurve) Goodputs(th time.Duration) []float64 {
	out := make([]float64, len(c.Results))
	for i, r := range c.Results {
		if r != nil {
			out[i] = r.Goodput(th)
		}
	}
	return out
}

// PeakGoodput returns the highest goodput at the threshold across the
// sweep — the capacity estimate the survival criterion is measured against.
func (c *OverloadCurve) PeakGoodput(th time.Duration) float64 {
	best := 0.0
	for _, g := range c.Goodputs(th) {
		if g > best {
			best = g
		}
	}
	return best
}

// WriteCSV writes the curve as CSV, one writeTrialsCSV row per offered
// rate.
func (c *OverloadCurve) WriteCSV(w io.Writer, thresholds []time.Duration) error {
	return writeTrialsCSV(w, "offered_rate", func(i int) string { return fmt.Sprintf("%g", c.Rates[i]) },
		c.Results, c.Errs, thresholds)
}

// OverloadSweep runs base once per offered rate with a Poisson arrival
// process and returns the curve. Rates beyond capacity are the point:
// the curve shows whether goodput plateaus (protected) or collapses
// (unprotected). Trials fan out, journal, and resume exactly like
// WorkloadSweep.
func OverloadSweep(base RunConfig, rates []float64) (*OverloadCurve, error) {
	cfgs := make([]RunConfig, len(rates))
	for i, r := range rates {
		cfgs[i] = base
		cfgs[i].Arrivals = trace.Poisson(r)
	}
	// base.Arrivals is nil here, so the deadline is not in the base
	// fingerprint; pin it via the axes along with the rates.
	cells, err := RunTrials(base, "overload", []string{fmt.Sprint(rates), fmt.Sprint(int64(base.Deadline))}, cfgs)
	if err != nil {
		return nil, err
	}
	c := &OverloadCurve{
		Label: fmt.Sprintf("%s(%s)", base.Testbed.Hardware, base.Testbed.Soft),
		Rates: append([]float64(nil), rates...),
	}
	c.Results, c.Errs = resultsOf(cells)
	return c, nil
}

// FlashCrowdConfig describes one flash-crowd trial: a steady base arrival
// rate that multiplies for a bounded spike window, with the timeline
// instrumentation needed to measure absorption and drain. The timeline has
// 1s windows; recovery is the trailing 5-window goodput average regaining
// 90% of the pre-spike baseline.
type FlashCrowdConfig struct {
	Run RunConfig

	// BaseRate is the steady offered load (req/s); the spike multiplies it
	// by SpikeMult (default 4) from SpikeStart (default 20s after the
	// measurement window opens) for SpikeDur (default 10s).
	BaseRate   float64
	SpikeMult  float64
	SpikeStart time.Duration
	SpikeDur   time.Duration

	// GoodputThreshold classifies a response as goodput (default 1s).
	GoodputThreshold time.Duration
}

func (c *FlashCrowdConfig) applyDefaults() {
	if c.SpikeMult <= 0 {
		c.SpikeMult = 4
	}
	if c.SpikeStart <= 0 {
		c.SpikeStart = 20 * time.Second
	}
	if c.SpikeDur <= 0 {
		c.SpikeDur = 10 * time.Second
	}
	if c.GoodputThreshold <= 0 {
		c.GoodputThreshold = time.Second
	}
	c.Run.applyDefaults()
	// The window must see the spike plus a drain tail, in whole windows.
	if min := c.SpikeStart + c.SpikeDur + 30*time.Second; c.Run.Measure < min {
		c.Run.Measure = (min + timelineWindow - 1).Truncate(timelineWindow)
	}
}

// FlashCrowdResult is the outcome of one flash-crowd trial: the trial's
// Result with its timeline, recovery and drain statistics.
type FlashCrowdResult struct {
	*Result
	Config FlashCrowdConfig

	// Timeline has one point per 1s window. Its gauge is the requests
	// waiting in tier queues at the window start.
	Timeline []WindowPoint

	// PreSpikeGoodput is the mean windowed goodput before the spike.
	PreSpikeGoodput float64
	// RecoveredAt is the offset from measurement start at which the
	// trailing goodput average regained 90% of the pre-spike
	// baseline after the spike ended (-1 when it never did); RecoveryTime
	// is that offset minus the spike end.
	RecoveredAt  time.Duration
	RecoveryTime time.Duration
	// DrainedAt is the first window boundary at or after the spike end
	// where total queued requests fell back to the pre-spike maximum (-1
	// when the backlog never drained); DrainTime is the offset from the
	// spike end.
	DrainedAt time.Duration
	DrainTime time.Duration
}

// Describe summarizes the flash-crowd outcome in one line.
func (fr *FlashCrowdResult) Describe() string {
	cfg := &fr.Config
	rec := "never recovered"
	if fr.RecoveryTime >= 0 {
		rec = fmt.Sprintf("recovered in %v", fr.RecoveryTime.Round(time.Second))
	}
	drain := "never drained"
	if fr.DrainTime >= 0 {
		drain = fmt.Sprintf("drained in %v", fr.DrainTime.Round(time.Second))
	}
	return fmt.Sprintf("%s %s %g req/s x%g spike: goodput(%v) %.1f req/s, errors %d, shed %d, late %d, %s, %s",
		cfg.Run.Testbed.Hardware, cfg.Run.Testbed.Soft, cfg.BaseRate, cfg.SpikeMult,
		cfg.GoodputThreshold, fr.SLA.Goodput(cfg.GoodputThreshold),
		fr.Errors, fr.Shed, fr.Late, rec, drain)
}

// WriteTimelineCSV writes the flash-crowd per-window series as CSV.
func (fr *FlashCrowdResult) WriteTimelineCSV(w io.Writer) error {
	return writeTimelineCSV(w, fr.Timeline, errorsColumn, shedColumn, lateColumn, gaugeColumn("queued", "%.0f"))
}

// RunFlashCrowd executes one flash-crowd trial: drive the testbed at the
// base rate, multiply arrivals for the spike window, and report the
// per-window timeline with recovery (goodput) and drain (queue backlog)
// statistics. Deterministic: a re-run with the same config reproduces the
// identical timeline.
func RunFlashCrowd(cfg FlashCrowdConfig) (*FlashCrowdResult, error) {
	cfg.applyDefaults()
	if cfg.BaseRate <= 0 {
		return nil, fmt.Errorf("experiment: flash crowd needs a positive base rate")
	}
	// The arrival clock starts at sim t=0, so spike offsets (relative to
	// the measurement window) shift by the ramp.
	cfg.Run.Arrivals = trace.FlashCrowd(cfg.BaseRate, cfg.BaseRate*cfg.SpikeMult,
		cfg.Run.RampUp+cfg.SpikeStart, cfg.SpikeDur)
	win := &windowing{width: timelineWindow, threshold: cfg.GoodputThreshold, gauge: queued}
	res, err := run(cfg.Run, win, "")
	if err != nil {
		return nil, err
	}
	fr := &FlashCrowdResult{Result: res, Config: cfg, Timeline: win.points, DrainedAt: -1, DrainTime: -1}
	for i := range win.points {
		win.points[i].Gauge = win.gauges[i]
	}
	spikeEnd := cfg.SpikeStart + cfg.SpikeDur
	fr.PreSpikeGoodput, fr.RecoveredAt, fr.RecoveryTime = win.recovery(cfg.SpikeStart, spikeEnd, flashRecoverFrac)

	// Drain: the first window boundary at or after the spike end where the
	// queued backlog fell back to its pre-spike maximum.
	preMax := 0.0
	for i, q := range win.gauges {
		at := time.Duration(i) * win.width
		if at < cfg.SpikeStart {
			preMax = max(preMax, q)
		} else if at >= spikeEnd && q <= preMax {
			fr.DrainedAt, fr.DrainTime = at, at-spikeEnd
			break
		}
	}
	return fr, nil
}
