package experiment

import (
	"fmt"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
)

// ScenarioConfig describes one fault-injection trial: a base experiment,
// whose Testbed.Resilience is the policy under test, and a fault plan
// (offsets relative to the start of the measurement window). The timeline
// has 1s windows; recovery is the trailing 5-window goodput average
// regaining 95% of the pre-fault baseline.
type ScenarioConfig struct {
	Run  RunConfig
	Plan fault.Plan

	// GoodputThreshold classifies a response as goodput (default 1s).
	GoodputThreshold time.Duration

	// Elastic, when set, attaches the elastic controller so the scenario
	// evaluates soft-resource control under faults.
	Elastic *adaptive.ElasticConfig
}

func (c *ScenarioConfig) applyDefaults() {
	c.Run.applyDefaults()
	if c.GoodputThreshold <= 0 {
		c.GoodputThreshold = time.Second
	}
}

// ScenarioResult is the outcome of one fault-injection trial: the trial's
// Result with its fault timeline and recovery statistics.
type ScenarioResult struct {
	*Result
	Config ScenarioConfig

	// Timeline has one point per 1s window. Its gauge is the window's mean
	// effective C-JDBC concurrency.
	Timeline []WindowPoint
	Records  []fault.Record // injector actions actually applied

	// PreFaultGoodput is the mean windowed goodput before the first fault
	// (the recovery baseline).
	PreFaultGoodput float64
	// RecoveredAt is the offset from measurement start at which the
	// trailing goodput average regained 95% of the pre-fault baseline
	// after the last fault ended (-1 when it never did).
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
		sr.Errors+sr.Shed, res.Retries, res.Shed, res.BreakerOpens, rec)
}

// RunScenario executes one fault-injection trial: build the topology with
// its resilience policy, ramp the workload, arm the fault plan at the start
// of the measurement window, measure through fault and recovery, and report
// the timeline with recovery statistics.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	cfg.applyDefaults()
	var (
		inj *fault.Injector
		ctl *adaptive.ElasticController
	)
	arm := func(tb *testbed.Testbed) (err error) {
		inj = fault.NewInjector(tb.Env, tb.FaultTargets(), cfg.Run.Testbed.Seed)
		if err := inj.Schedule(cfg.Run.RampUp, cfg.Plan); err != nil {
			return err
		}
		if cfg.Elastic != nil {
			ctl, err = adaptive.AttachElastic(tb, *cfg.Elastic, cfg.Run.RampUp+cfg.Run.Measure)
		}
		return err
	}
	win := &windowing{width: obs.SampleInterval, threshold: cfg.GoodputThreshold, gauge: cjdbcBusy}
	res, _, err := run(cfg.Run, Disturbance{Arm: arm}, win, "")
	if err != nil {
		return nil, err
	}
	sr := &ScenarioResult{Result: res, Config: cfg, Timeline: win.points, Records: inj.Records()}
	if ctl != nil {
		sr.Decisions = ctl.Decisions()
	}
	sec := win.width.Seconds()
	for i := range win.points {
		win.points[i].Gauge = (win.gauges[i+1] - win.gauges[i]) / sec
	}
	if n := len(win.points); n > 0 {
		sr.MeanCJDBCBusy = (win.gauges[n] - win.gauges[0]) / (float64(n) * sec)
	}
	sr.PreFaultGoodput, sr.RecoveredAt, sr.RecoveryTime =
		win.recovery(cfg.Plan.FirstStart(), cfg.Plan.LastEnd(), faultRecoverFrac)
	return sr, nil
}
