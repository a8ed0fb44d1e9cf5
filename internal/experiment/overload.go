package experiment

// Overload experiments: open-system trials where offered load is set by an
// arrival process instead of a user population, so it can exceed capacity.
// OverloadSweep produces the goodput-vs-offered-rate curve (the saturation
// figure a closed-loop sweep cannot draw), and RunFlashCrowd measures how a
// deployment absorbs and drains a transient arrival spike.

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
	"github.com/softres/ntier/internal/trace"
)

// OverloadProtection returns the overload-survival policy: the adaptive
// CoDel-style admission controller at the web tier, a tight static queue
// bound as its burst backstop, and a cheap degraded response for everything
// shed. Pair it with RunConfig.Deadline for deadline propagation down the
// chain.
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

// WriteCSV writes the curve as CSV: offered rate, throughput, goodput per
// threshold, the errors/shed/abandoned/late split, response times, and
// per-tier CPU.
func (c *OverloadCurve) WriteCSV(w io.Writer, thresholds []time.Duration) error {
	cw := csv.NewWriter(w)
	header := []string{"offered_rate", "throughput"}
	for _, th := range thresholds {
		header = append(header, fmt.Sprintf("goodput_%s", th))
	}
	header = append(header, "errors", "shed", "abandoned", "late", "mean_rt_s", "p95_rt_s",
		"apache_cpu", "tomcat_cpu", "cjdbc_cpu", "mysql_cpu", "status")
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, r := range c.Results {
		row := []string{fmt.Sprintf("%g", c.Rates[i])}
		if r == nil {
			status := "missing"
			if i < len(c.Errs) && c.Errs[i] != nil {
				status = c.Errs[i].Error()
			}
			for len(row) < len(header)-1 {
				row = append(row, "")
			}
			row = append(row, status)
			if err := cw.Write(row); err != nil {
				return err
			}
			continue
		}
		row = append(row, fmt.Sprintf("%.2f", r.Throughput()))
		for _, th := range thresholds {
			row = append(row, fmt.Sprintf("%.2f", r.Goodput(th)))
		}
		row = append(row,
			strconv.FormatUint(r.Errors, 10),
			strconv.FormatUint(r.Shed, 10),
			strconv.FormatUint(r.Abandoned, 10),
			strconv.FormatUint(r.Late, 10),
			fmt.Sprintf("%.4f", r.SLA.ResponseTimes().Mean()),
			fmt.Sprintf("%.4f", r.SLA.ResponseTimes().Percentile(95)),
			fmt.Sprintf("%.4f", TierCPU(r.Apache)),
			fmt.Sprintf("%.4f", TierCPU(r.Tomcat)),
			fmt.Sprintf("%.4f", TierCPU(r.CJDBC)),
			fmt.Sprintf("%.4f", TierCPU(r.MySQL)),
			"ok",
		)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
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
// instrumentation needed to measure absorption and drain.
type FlashCrowdConfig struct {
	Run RunConfig

	// BaseRate is the steady offered load (req/s); the spike multiplies it
	// by SpikeMult (default 4) from SpikeStart (default 20s after the
	// measurement window opens) for SpikeDur (default 10s).
	BaseRate   float64
	SpikeMult  float64
	SpikeStart time.Duration
	SpikeDur   time.Duration

	// Window is the timeline bucket width (default 1s).
	Window time.Duration
	// GoodputThreshold classifies a response as goodput (default 1s).
	GoodputThreshold time.Duration
	// RecoverFrac is the fraction of pre-spike goodput regarded as
	// recovered (default 0.9); RecoverWindows the trailing moving-average
	// width for the test (default 5).
	RecoverFrac    float64
	RecoverWindows int
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
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.GoodputThreshold <= 0 {
		c.GoodputThreshold = time.Second
	}
	if c.RecoverFrac <= 0 {
		c.RecoverFrac = 0.9
	}
	if c.RecoverWindows <= 0 {
		c.RecoverWindows = 5
	}
	c.Run.applyDefaults()
	// The window must see the spike plus a drain tail.
	if min := c.SpikeStart + c.SpikeDur + 30*time.Second; c.Run.Measure < min {
		c.Run.Measure = min
	}
}

// FlashPoint is one timeline bucket of a flash-crowd trial, bucketed by
// completion time from the start of the measurement window.
type FlashPoint struct {
	Second    float64 // bucket start, seconds from measurement start
	Completed int     // responses (ok, error, or shed) finishing in the bucket
	Goodput   float64 // in-threshold successes per second
	Errors    int     // error responses finishing in the bucket
	Shed      int     // shed rejections finishing in the bucket
	Late      int     // deadline-violating completions in the bucket
	Queued    float64 // requests waiting in tier queues at the bucket start
}

// FlashCrowdResult is the outcome of one flash-crowd trial.
type FlashCrowdResult struct {
	Config FlashCrowdConfig

	SLA    *sla.Collector
	Errors uint64
	Shed   uint64
	Late   uint64

	Apache, Tomcat, CJDBC, MySQL []ServerStats

	Timeline []FlashPoint

	// PreSpikeGoodput is the mean windowed goodput before the spike.
	PreSpikeGoodput float64
	// RecoveredAt is the offset from measurement start at which the
	// trailing goodput average regained RecoverFrac of the pre-spike
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

// Servers returns all per-server stats in tier order.
func (fr *FlashCrowdResult) Servers() []ServerStats {
	out := make([]ServerStats, 0, len(fr.Apache)+len(fr.Tomcat)+len(fr.CJDBC)+len(fr.MySQL))
	out = append(out, fr.Apache...)
	out = append(out, fr.Tomcat...)
	out = append(out, fr.CJDBC...)
	out = append(out, fr.MySQL...)
	return out
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
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"second", "completed", "goodput", "errors", "shed", "late", "queued"}); err != nil {
		return err
	}
	for _, pt := range fr.Timeline {
		row := []string{
			fmt.Sprintf("%.0f", pt.Second),
			strconv.Itoa(pt.Completed),
			fmt.Sprintf("%.2f", pt.Goodput),
			strconv.Itoa(pt.Errors),
			strconv.Itoa(pt.Shed),
			strconv.Itoa(pt.Late),
			fmt.Sprintf("%.0f", pt.Queued),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
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
	if cerr := ctxErr(cfg.Run.Ctx); cerr != nil {
		return nil, cerr
	}
	tb, err := testbed.Build(cfg.Run.Testbed)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	dog := startWatchdog(cfg.Run, tb.Env)
	defer dog.stop()

	measureStart := cfg.Run.RampUp
	horizon := cfg.Run.RampUp + cfg.Run.Measure
	windows := int((cfg.Run.Measure + cfg.Window - 1) / cfg.Window)

	collector := sla.NewCollector(cfg.Run.Thresholds)
	var errCount uint64
	points := make([]FlashPoint, windows)
	for i := range points {
		points[i].Second = float64(i) * cfg.Window.Seconds()
	}
	bucket := func(done time.Duration) int {
		if done < measureStart {
			return -1
		}
		i := int((done - measureStart) / cfg.Window)
		if i >= windows {
			return -1
		}
		return i
	}

	// The arrival clock starts at sim t=0, so spike offsets (relative to
	// the measurement window) shift by the ramp.
	spec := trace.FlashCrowd(cfg.BaseRate, cfg.BaseRate*cfg.SpikeMult,
		cfg.Run.RampUp+cfg.SpikeStart, cfg.SpikeDur)
	_, err = tb.StartOpenWorkload(rubbos.OpenConfig{
		Arrivals:    spec,
		ClientNodes: cfg.Run.ClientNodes,
		Matrix:      cfg.Run.Mix,
		Seed:        cfg.Run.Testbed.Seed,
		Deadline:    cfg.Run.Deadline,
	}, func(it *rubbos.Interaction, issued, rt time.Duration, rerr error) {
		done := issued + rt
		shed := false
		if k, ok := tier.ErrKind(rerr); ok && (k == tier.FailShed || k == tier.FailDeadline) {
			shed = true
		}
		if i := bucket(done); i >= 0 {
			points[i].Completed++
			switch {
			case shed:
				points[i].Shed++
			case rerr != nil:
				points[i].Errors++
			default:
				if rt <= cfg.GoodputThreshold {
					points[i].Goodput += 1 / cfg.Window.Seconds()
				}
				if cfg.Run.Deadline > 0 && rt > cfg.Run.Deadline {
					points[i].Late++
				}
			}
		}
		if issued < measureStart {
			return
		}
		switch {
		case shed:
			collector.ObserveShed()
		case rerr != nil:
			errCount++
		default:
			collector.Observe(rt)
			if cfg.Run.Deadline > 0 && rt > cfg.Run.Deadline {
				collector.ObserveLate()
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// Sample total queued requests (worker, servlet-thread, and DB-conn
	// wait queues) at every window boundary — pure reads.
	queuedAt := make([]float64, windows+1)
	readQueued := func() float64 {
		sum := 0
		for _, a := range tb.Apaches {
			sum += a.Workers.Queued()
		}
		for _, t := range tb.Tomcats {
			sum += t.Threads.Queued() + t.Conns.Queued()
		}
		return float64(sum)
	}
	for i := 0; i <= windows; i++ {
		i := i
		tb.Env.At(measureStart+time.Duration(i)*cfg.Window, func() { queuedAt[i] = readQueued() })
	}

	tb.Env.Run(measureStart)
	if aerr := trialAborted(cfg.Run, tb.Env); aerr != nil {
		return nil, aerr
	}
	tb.ResetStats()
	tb.Env.Run(horizon)
	if aerr := trialAborted(cfg.Run, tb.Env); aerr != nil {
		return nil, aerr
	}

	collector.SetElapsed(cfg.Run.Measure)
	fr := &FlashCrowdResult{
		Config:       cfg,
		SLA:          collector,
		Errors:       errCount,
		Shed:         collector.Shed(),
		Late:         collector.Late(),
		Timeline:     points,
		RecoveredAt:  -1,
		RecoveryTime: -1,
		DrainedAt:    -1,
		DrainTime:    -1,
	}
	fr.Apache, fr.Tomcat, fr.CJDBC, fr.MySQL = collectStats(tb)
	for i := 0; i < windows; i++ {
		points[i].Queued = queuedAt[i]
	}
	fr.computeRecovery()
	fr.computeDrain(queuedAt)
	return fr, nil
}

// computeRecovery derives the pre-spike goodput baseline and the time to
// regain RecoverFrac of it after the spike ends.
func (fr *FlashCrowdResult) computeRecovery() {
	cfg := &fr.Config
	spikeEnd := cfg.SpikeStart + cfg.SpikeDur

	pre, n := 0.0, 0
	for _, pt := range fr.Timeline {
		if time.Duration((pt.Second+cfg.Window.Seconds())*float64(time.Second)) > cfg.SpikeStart {
			break
		}
		pre += pt.Goodput
		n++
	}
	if n == 0 {
		return
	}
	fr.PreSpikeGoodput = pre / float64(n)
	if fr.PreSpikeGoodput <= 0 {
		return
	}

	k := cfg.RecoverWindows
	for i := range fr.Timeline {
		end := time.Duration(float64(i+1) * cfg.Window.Seconds() * float64(time.Second))
		if end < spikeEnd || i+1 < k {
			continue
		}
		avg := 0.0
		for j := i + 1 - k; j <= i; j++ {
			avg += fr.Timeline[j].Goodput
		}
		avg /= float64(k)
		if avg >= cfg.RecoverFrac*fr.PreSpikeGoodput {
			fr.RecoveredAt = end
			fr.RecoveryTime = end - spikeEnd
			if fr.RecoveryTime < 0 {
				fr.RecoveryTime = 0
			}
			return
		}
	}
}

// computeDrain finds the first window boundary at or after the spike end
// where the queued backlog fell back to its pre-spike maximum.
func (fr *FlashCrowdResult) computeDrain(queuedAt []float64) {
	cfg := &fr.Config
	spikeEnd := cfg.SpikeStart + cfg.SpikeDur
	preMax := 0.0
	for i := range queuedAt {
		at := time.Duration(i) * cfg.Window
		if at >= cfg.SpikeStart {
			break
		}
		if queuedAt[i] > preMax {
			preMax = queuedAt[i]
		}
	}
	for i := range queuedAt {
		at := time.Duration(i) * cfg.Window
		if at < spikeEnd {
			continue
		}
		if queuedAt[i] <= preMax {
			fr.DrainedAt = at
			fr.DrainTime = at - spikeEnd
			return
		}
	}
}
