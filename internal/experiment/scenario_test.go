package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
)

// scenarioBase is the 1/4/1/4 fault-trial topology (paper hardware, full
// soft allocation).
func scenarioBase(users int) RunConfig {
	return RunConfig{
		Testbed: testbed.Options{
			Hardware: testbed.Hardware{Web: 1, App: 4, Mid: 1, DB: 4},
			Soft:     testbed.SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 6},
			Seed:     21,
		},
		Users:   users,
		RampUp:  15 * time.Second,
		Measure: 120 * time.Second,
	}
}

// TestCrashTomcatRecovery is the headline resilience demonstration: crash
// one of four application servers on the paper's 1/4/1/4 hardware for 30
// seconds. The resilient front end fails over, goodput degrades while the
// server is down, and after the restart the trailing goodput average
// regains at least 95% of the pre-fault baseline.
func TestCrashTomcatRecovery(t *testing.T) {
	faultStart, faultEnd := 30*time.Second, 60*time.Second
	sr, err := RunScenario(ScenarioConfig{
		Run:        scenarioBase(3000),
		Resilience: defaultScenarioResilience(),
		Plan: fault.Plan{Events: []fault.Event{
			fault.Crash("tomcat1", faultStart, faultEnd),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.PreFaultGoodput <= 0 {
		t.Fatal("no pre-fault goodput baseline")
	}
	if sr.Errors+sr.Shed == 0 {
		t.Error("crash produced no error responses")
	}
	// Degradation: some window during the fault drops visibly below the
	// baseline (failed-over load and breaker probes cost goodput).
	minGood := sr.PreFaultGoodput
	for _, pt := range sr.Timeline {
		at := time.Duration(pt.Second * float64(time.Second))
		if at >= faultStart && at < faultEnd && pt.Goodput < minGood {
			minGood = pt.Goodput
		}
	}
	if minGood >= 0.95*sr.PreFaultGoodput {
		t.Errorf("no visible degradation: min fault-window goodput %.1f vs baseline %.1f",
			minGood, sr.PreFaultGoodput)
	}
	// Recovery: the trailing average regains >=95% of the baseline, and
	// the recovery time is reported.
	if sr.RecoveryTime < 0 {
		t.Fatalf("never recovered to 95%% of pre-fault goodput %.1f", sr.PreFaultGoodput)
	}
	if sr.RecoveryTime > 30*time.Second {
		t.Errorf("recovery took %v, want prompt recovery after restart", sr.RecoveryTime)
	}
	if sr.RecoveredAt < faultEnd {
		t.Errorf("recovered at %v, before the fault ended", sr.RecoveredAt)
	}
	// The injector applied and reverted exactly one event.
	if len(sr.Records) != 2 || sr.Records[0].Revert || !sr.Records[1].Revert {
		t.Errorf("injector records = %v, want apply+revert", sr.Records)
	}
	if !strings.Contains(sr.Describe(), "recovered in") {
		t.Errorf("Describe does not report recovery: %s", sr.Describe())
	}
}

// TestRetryAmplification demonstrates why retries need timeouts and
// backoff. One of four databases crashes mid-run. Config A retries
// immediately with no timeouts, no backoff, and no breaker: every failed
// query is re-issued instantly, re-paying the C-JDBC checkout validation
// and routing work at elevated concurrency, driving the middleware past its
// thrash threshold. Config B bounds waits and backs off. A shows strictly
// higher effective C-JDBC concurrency and strictly lower goodput.
func TestRetryAmplification(t *testing.T) {
	run := func(res *tier.ResilienceConfig) *ScenarioResult {
		base := scenarioBase(5000)
		base.Testbed.Soft.AppConns = 12 // enough conn headroom for the storm to build
		sr, err := RunScenario(ScenarioConfig{
			Run:        base,
			Resilience: res,
			Plan: fault.Plan{Events: []fault.Event{
				fault.Crash("mysql1", 30*time.Second, 90*time.Second),
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	storm := run(RetryStormResilience())
	sane := run(defaultScenarioResilience())

	t.Logf("storm: goodput=%.1f busy=%.2f retries=%d", storm.SLA.Goodput(time.Second), storm.MeanCJDBCBusy, storm.TotalResilience().Retries)
	t.Logf("sane:  goodput=%.1f busy=%.2f retries=%d", sane.SLA.Goodput(time.Second), sane.MeanCJDBCBusy, sane.TotalResilience().Retries)

	if storm.MeanCJDBCBusy <= sane.MeanCJDBCBusy {
		t.Errorf("retry storm mean C-JDBC concurrency %.2f <= sane %.2f; expected amplification",
			storm.MeanCJDBCBusy, sane.MeanCJDBCBusy)
	}
	if storm.SLA.Goodput(time.Second) >= sane.SLA.Goodput(time.Second) {
		t.Errorf("retry storm goodput %.1f >= sane %.1f; expected collapse",
			storm.SLA.Goodput(time.Second), sane.SLA.Goodput(time.Second))
	}
	// The storm pushes the middleware past its thrash threshold — the
	// super-linear overhead regime is what makes amplification explosive.
	if th := float64(tier.DefaultCJDBCConfig().ThrashThreshold); storm.MeanCJDBCBusy <= th {
		t.Errorf("storm mean concurrency %.2f never crossed the thrash threshold %.0f", storm.MeanCJDBCBusy, th)
	}
	if storm.TotalResilience().Retries == 0 || sane.TotalResilience().Retries == 0 {
		t.Error("expected retries in both configurations")
	}
}

// TestScenarioDeterminism: the same seed and plan replay byte-identically,
// including timelines, injector records, and resilience counters.
func TestScenarioDeterminism(t *testing.T) {
	run := func() string {
		base := RunConfig{
			Testbed: testbed.Options{
				Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
				Soft:     testbed.SoftAlloc{WebThreads: 200, AppThreads: 10, AppConns: 5},
				Seed:     7,
			},
			Users:   800,
			RampUp:  10 * time.Second,
			Measure: 40 * time.Second,
		}
		sr, err := RunScenario(ScenarioConfig{
			Run:        base,
			Resilience: defaultScenarioResilience(),
			Plan: fault.Plan{
				JitterFrac: 0.1, // exercise the injector's seeded jitter
				Events: []fault.Event{
					fault.Crash("tomcat1", 10*time.Second, 20*time.Second),
					fault.Brownout("cjdbc1", 12*time.Second, 22*time.Second, 0.5),
					fault.NetSpike("link", 15*time.Second, 25*time.Second, 2*time.Millisecond),
					fault.ConnLeak("tomcat2/conns", 15*time.Second, 25*time.Second, 2),
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s\n%v\n%v\n%d\n%+v\n",
			sr.Describe(), sr.Timeline, sr.Records, sr.Errors+sr.Shed, sr.TotalResilience())
		if err := sr.WriteTimelineCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("scenario replay diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestNamedScenarios: every built-in scenario produces a plan that
// validates against the 1/4/1/4 topology, and lookup by name works.
func TestNamedScenarios(t *testing.T) {
	tb, err := testbed.Build(scenarioBase(100).Testbed)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	inj := fault.NewInjector(tb.Env, tb.FaultTargets(), 1)
	for _, sc := range Scenarios() {
		cfg := sc.Configure(scenarioBase(100))
		if err := cfg.Plan.Validate(); err != nil {
			t.Errorf("%s: invalid plan: %v", sc.Name, err)
		}
		if err := inj.Schedule(time.Hour, cfg.Plan); err != nil {
			t.Errorf("%s: plan does not target the 1/4/1/4 topology: %v", sc.Name, err)
		}
		got, err := ScenarioByName(sc.Name)
		if err != nil || got.Name != sc.Name {
			t.Errorf("ScenarioByName(%q) = %v, %v", sc.Name, got.Name, err)
		}
	}
	if _, err := ScenarioByName("no-such-scenario"); err == nil {
		t.Error("unknown scenario name should error")
	}
}

// TestScenarioUnderElasticControl: the controller hook runs under faults
// and the scenario completes with decisions recorded deterministically.
func TestScenarioUnderElasticControl(t *testing.T) {
	base := RunConfig{
		Testbed: testbed.Options{
			Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
			Soft:     testbed.SoftAlloc{WebThreads: 200, AppThreads: 4, AppConns: 4},
			Seed:     13,
		},
		Users:   1200,
		RampUp:  10 * time.Second,
		Measure: 60 * time.Second,
	}
	sr, err := RunScenario(ScenarioConfig{
		Run:        base,
		Resilience: defaultScenarioResilience(),
		Elastic:    &adaptive.ElasticConfig{Policy: adaptive.PolicyTopJob},
		Plan: fault.Plan{Events: []fault.Event{
			fault.Brownout("tomcat2", 20*time.Second, 40*time.Second, 0.4),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.SLA.Throughput() <= 0 {
		t.Fatal("no throughput under elastic control")
	}
	// The under-allocated pools under load should trigger at least one
	// controller action; the hook's value is that it runs at all under
	// faults, so only sanity-check the decisions.
	for _, d := range sr.Decisions {
		if d.To <= 0 {
			t.Errorf("nonsensical decision %v", d)
		}
	}
}

// A windowed trial whose measurement is not a whole number of windows
// would leave its last boundary gauge past the horizon, unread, and divide
// a partial window's goodput by a full width: it is refused, naming both
// values. A flash crowd stretches its measurement to whole windows.
func TestWindowedTrialRejectsPartialWindow(t *testing.T) {
	sc, err := ScenarioByName("crash-tomcat")
	if err != nil {
		t.Fatal(err)
	}
	base := pinScenarioBase()
	base.Measure = 20500 * time.Millisecond
	if _, err := RunScenario(sc.Configure(base)); err == nil ||
		!strings.Contains(err.Error(), "20.5s") || !strings.Contains(err.Error(), "1s") {
		t.Errorf("scenario at 20.5s: error %v, want one naming 20.5s and 1s", err)
	}

	ecfg := elasticBase(t)
	ecfg.Run.Measure = 125 * time.Second
	ecfg.applyDefaults()
	if _, err := RunElastic(ecfg, adaptive.PolicyStatic, ecfg.Traces[0]); err == nil ||
		!strings.Contains(err.Error(), "2m5s") || !strings.Contains(err.Error(), "10s") {
		t.Errorf("elastic day at 2m5s: error %v, want one naming 2m5s and 10s", err)
	}

	fc := FlashCrowdConfig{SpikeStart: 20500 * time.Millisecond}
	fc.applyDefaults()
	if fc.Run.Measure != 61*time.Second {
		t.Errorf("flash crowd stretched to %v, want 61s", fc.Run.Measure)
	}
}
