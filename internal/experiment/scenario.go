package experiment

import (
	"fmt"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
)

// ScenarioConfig describes one fault-injection trial: a base experiment, a
// fault plan (offsets relative to the start of the measurement window), and
// the resilience policy under test.
type ScenarioConfig struct {
	Run  RunConfig
	Plan fault.Plan

	// Resilience is applied to every Apache and Tomcat (nil runs the bare
	// fault-free pipeline against the plan — no timeouts, no retries).
	Resilience *tier.ResilienceConfig

	// Window is the timeline bucket width (default 1s).
	Window time.Duration
	// GoodputThreshold classifies a response as goodput (default 1s).
	GoodputThreshold time.Duration
	// RecoverFrac is the fraction of pre-fault goodput regarded as
	// recovered (default 0.95). RecoverWindows is the trailing
	// moving-average width used for the recovery test (default 5).
	RecoverFrac    float64
	RecoverWindows int

	// Elastic, when set, attaches the elastic controller so the scenario
	// evaluates soft-resource control under faults.
	Elastic *adaptive.ElasticConfig
}

func (c *ScenarioConfig) applyDefaults() {
	c.Run.applyDefaults()
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.GoodputThreshold <= 0 {
		c.GoodputThreshold = time.Second
	}
	if c.RecoverFrac <= 0 {
		c.RecoverFrac = 0.95
	}
	if c.RecoverWindows <= 0 {
		c.RecoverWindows = 5
	}
}

// ScenarioPoint is one timeline bucket of a fault trial, indexed from the
// start of the measurement window and bucketed by completion time.
type ScenarioPoint struct {
	Second    float64 // bucket start, seconds from measurement start
	Completed int     // responses (ok or error) finishing in the bucket
	Goodput   float64 // in-threshold successes per second
	Errors    int     // error responses finishing in the bucket
	CJDBCBusy float64 // mean checked-out C-JDBC connections over the bucket
}

// ScenarioResult is the outcome of one fault-injection trial.
type ScenarioResult struct {
	Config ScenarioConfig

	SLA    *sla.Collector
	Errors uint64 // error responses during the measurement window

	Apache, Tomcat, CJDBC, MySQL []ServerStats

	Timeline []ScenarioPoint
	Records  []fault.Record // injector actions actually applied

	// PreFaultGoodput is the mean windowed goodput before the first fault
	// (the recovery baseline).
	PreFaultGoodput float64
	// RecoveredAt is the offset from measurement start at which the
	// trailing goodput average regained RecoverFrac of the pre-fault
	// baseline after the last fault ended (-1 when it never did).
	RecoveredAt time.Duration
	// RecoveryTime is RecoveredAt minus the last fault's end (-1 when the
	// system never recovered).
	RecoveryTime time.Duration

	// MeanCJDBCBusy is the mean effective C-JDBC concurrency over the
	// measurement window — the retry-amplification metric.
	MeanCJDBCBusy float64

	// Decisions holds the elastic controller's actions (nil without one).
	Decisions []adaptive.ElasticDecision
}

// Servers returns all per-server stats in tier order.
func (sr *ScenarioResult) Servers() []ServerStats {
	out := make([]ServerStats, 0, len(sr.Apache)+len(sr.Tomcat)+len(sr.CJDBC)+len(sr.MySQL))
	out = append(out, sr.Apache...)
	out = append(out, sr.Tomcat...)
	out = append(out, sr.CJDBC...)
	out = append(out, sr.MySQL...)
	return out
}

// TotalResilience sums the resilience counters across all servers.
func (sr *ScenarioResult) TotalResilience() tier.ResilienceStats {
	var t tier.ResilienceStats
	for _, s := range sr.Servers() {
		if s.Resilience == nil {
			continue
		}
		t.Shed += s.Resilience.Shed
		t.AcquireTimeouts += s.Resilience.AcquireTimeouts
		t.CallTimeouts += s.Resilience.CallTimeouts
		t.Retries += s.Resilience.Retries
		t.Failures += s.Resilience.Failures
		t.BreakerOpens += s.Resilience.BreakerOpens
	}
	return t
}

// Describe summarizes the scenario outcome in one line.
func (sr *ScenarioResult) Describe() string {
	res := sr.TotalResilience()
	rec := "not recovered"
	if sr.RecoveryTime >= 0 {
		rec = fmt.Sprintf("recovered in %v", sr.RecoveryTime.Round(time.Second))
	}
	return fmt.Sprintf("%s %s N=%d: goodput(%v) %.1f req/s, errors %d, retries %d, shed %d, breaker opens %d, %s",
		sr.Config.Run.Testbed.Hardware, sr.Config.Run.Testbed.Soft, sr.Config.Run.Users,
		sr.Config.GoodputThreshold, sr.SLA.Goodput(sr.Config.GoodputThreshold),
		sr.Errors, res.Retries, res.Shed, res.BreakerOpens, rec)
}

// RunScenario executes one fault-injection trial: build the topology with
// the resilience policy, ramp the workload, arm the fault plan at the start
// of the measurement window, measure through fault and recovery, and report
// the timeline with recovery statistics.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	cfg.applyDefaults()
	if cerr := ctxErr(cfg.Run.Ctx); cerr != nil {
		return nil, cerr
	}
	cfg.Run.Testbed.Resilience = cfg.Resilience
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

	inj := fault.NewInjector(tb.Env, tb.FaultTargets(), cfg.Run.Testbed.Seed)
	if err := inj.Schedule(measureStart, cfg.Plan); err != nil {
		return nil, err
	}

	var ctl *adaptive.ElasticController
	if cfg.Elastic != nil {
		if ctl, err = adaptive.AttachElastic(tb, *cfg.Elastic); err != nil {
			return nil, err
		}
	}

	collector := sla.NewCollector(cfg.Run.Thresholds)
	var errCount uint64
	points := make([]ScenarioPoint, windows)
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

	ccfg := rubbos.ClientConfig{
		Users:       cfg.Run.Users,
		ClientNodes: cfg.Run.ClientNodes,
		ThinkMean:   cfg.Run.ThinkMean,
		RampUp:      cfg.Run.RampUp / 2,
		Matrix:      cfg.Run.Mix,
		Seed:        cfg.Run.Testbed.Seed,
	}
	_, err = tb.StartWorkload(ccfg, func(it *rubbos.Interaction, issued, rt time.Duration, rerr error) {
		done := issued + rt
		if i := bucket(done); i >= 0 {
			points[i].Completed++
			if rerr != nil {
				points[i].Errors++
			} else if rt <= cfg.GoodputThreshold {
				points[i].Goodput += 1 / cfg.Window.Seconds()
			}
		}
		if issued < measureStart {
			return
		}
		if rerr != nil {
			errCount++
			return
		}
		collector.Observe(rt)
	})
	if err != nil {
		return nil, err
	}

	// Sample the C-JDBC busy integral at every window boundary: the diff
	// over a window is busy-unit-seconds, i.e. mean effective concurrency.
	busyAt := make([]float64, windows+1)
	readBusy := func() float64 {
		sum := 0.0
		for _, c := range tb.CJDBCs {
			sum += c.BusyIntegral()
		}
		return sum
	}
	for i := 0; i <= windows; i++ {
		i := i
		tb.Env.At(measureStart+time.Duration(i)*cfg.Window, func() { busyAt[i] = readBusy() })
	}

	tb.Env.Run(measureStart)
	if aerr := trialAborted(cfg.Run, tb.Env); aerr != nil {
		return nil, aerr
	}
	tb.ResetStats()
	tb.Env.Run(horizon)
	if ctl != nil {
		ctl.Stop()
	}
	if aerr := trialAborted(cfg.Run, tb.Env); aerr != nil {
		return nil, aerr
	}

	collector.SetElapsed(cfg.Run.Measure)
	sr := &ScenarioResult{
		Config:       cfg,
		SLA:          collector,
		Errors:       errCount,
		Timeline:     points,
		Records:      inj.Records(),
		RecoveredAt:  -1,
		RecoveryTime: -1,
	}
	sr.Apache, sr.Tomcat, sr.CJDBC, sr.MySQL = collectStats(tb)
	if ctl != nil {
		sr.Decisions = ctl.Decisions()
	}
	for i := 0; i < windows; i++ {
		points[i].CJDBCBusy = (busyAt[i+1] - busyAt[i]) / cfg.Window.Seconds()
	}
	if windows > 0 {
		sr.MeanCJDBCBusy = (busyAt[windows] - busyAt[0]) / (float64(windows) * cfg.Window.Seconds())
	}
	sr.computeRecovery()
	return sr, nil
}

// computeRecovery derives the pre-fault baseline and the time to regain
// RecoverFrac of it after the last fault ends.
func (sr *ScenarioResult) computeRecovery() {
	cfg := &sr.Config
	if len(cfg.Plan.Events) == 0 || len(sr.Timeline) == 0 {
		return
	}
	firstStart := cfg.Plan.FirstStart()
	lastEnd := cfg.Plan.LastEnd()

	// Baseline: mean goodput over the windows wholly before the first
	// fault; without any, the fault hit at t=0 and no baseline exists.
	pre, n := 0.0, 0
	for _, pt := range sr.Timeline {
		if time.Duration((pt.Second+cfg.Window.Seconds())*float64(time.Second)) > firstStart {
			break
		}
		pre += pt.Goodput
		n++
	}
	if n == 0 {
		return
	}
	sr.PreFaultGoodput = pre / float64(n)
	if sr.PreFaultGoodput <= 0 {
		return
	}

	// Recovery: trailing moving average over RecoverWindows buckets, first
	// reaching RecoverFrac of the baseline at or after the last fault end.
	k := cfg.RecoverWindows
	for i := range sr.Timeline {
		end := time.Duration(float64(i+1) * cfg.Window.Seconds() * float64(time.Second))
		if end < lastEnd || i+1 < k {
			continue
		}
		avg := 0.0
		for j := i + 1 - k; j <= i; j++ {
			avg += sr.Timeline[j].Goodput
		}
		avg /= float64(k)
		if avg >= cfg.RecoverFrac*sr.PreFaultGoodput {
			sr.RecoveredAt = end
			sr.RecoveryTime = end - lastEnd
			if sr.RecoveryTime < 0 {
				sr.RecoveryTime = 0
			}
			return
		}
	}
}
