package adaptive

import (
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/testbed"
)

// buildTB builds the standard 1/2/1/2 topology with the given allocation.
func buildTB(t *testing.T, soft testbed.SoftAlloc, seed uint64) *testbed.Testbed {
	t.Helper()
	tb, err := testbed.Build(testbed.Options{
		Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
		Soft:     soft,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"static": PolicyStatic, "UNIFORM": PolicyUniform,
		" top_job ": PolicyTopJob, "Softmax": PolicySoftmax,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("greedy"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}

func TestAttachElasticValidation(t *testing.T) {
	tb := buildTB(t, testbed.SoftAlloc{WebThreads: 60, AppThreads: 4, AppConns: 4}, 1)
	if _, err := AttachElastic(tb, ElasticConfig{Policy: PolicyStatic}, time.Minute); err == nil {
		t.Error("STATIC must be rejected (it is the no-controller baseline)")
	}
	if _, err := AttachElastic(tb, ElasticConfig{Policy: PolicySoftmax}, time.Minute); err == nil {
		t.Error("SOFTMAX without oracles must be rejected")
	}
	if _, err := AttachElastic(tb, ElasticConfig{Policy: "GREEDY"}, time.Minute); err == nil {
		t.Error("unknown policy must be rejected")
	}
}

// steadyFrom is where runElastic starts counting steady-state
// throughput: a minute in, after the controller has had time to converge.
const steadyFrom = time.Minute

// runElastic drives a closed workload under one policy and returns the
// controller (nil for STATIC, which attaches none), the testbed, and the
// throughput of the requests issued from steadyFrom to the horizon.
func runElastic(t *testing.T, cfg ElasticConfig, soft testbed.SoftAlloc, users int, horizon time.Duration) (*ElasticController, *testbed.Testbed, float64) {
	t.Helper()
	tb := buildTB(t, soft, 23)
	var ctl *ElasticController
	if cfg.Policy != PolicyStatic {
		var err error
		if ctl, err = AttachElastic(tb, cfg, horizon); err != nil {
			t.Fatal(err)
		}
	}
	ccfg := rubbos.DefaultClientConfig(users)
	ccfg.RampUp = 10 * time.Second
	var steady uint64
	if _, err := tb.StartWorkload(ccfg, func(_ *rubbos.Interaction, issued, _ time.Duration, _ error) {
		if issued >= steadyFrom {
			steady++
		}
	}); err != nil {
		t.Fatal(err)
	}
	tb.Env.Run(horizon)
	return ctl, tb, float64(steady) / (horizon - steadyFrom).Seconds()
}

func TestElasticGrowsBottleneckAxis(t *testing.T) {
	for _, tc := range []struct {
		name     string
		soft     testbed.SoftAlloc
		users    int
		interval time.Duration
		horizon  time.Duration
		// bottleneck: TOP_JOB must grow the threads axis, funded by a
		// donor, and beat STATIC's steady-state throughput by 1.3×.
		// Otherwise it must make no soft-bottleneck growth and stay
		// within 2% of STATIC.
		bottleneck bool
	}{
		// Three servlet threads per Tomcat under 5000 users is the §III-A
		// soft bottleneck; the start sits exactly at the budget.
		{"soft-bottleneck", testbed.SoftAlloc{WebThreads: 400, AppThreads: 3, AppConns: 20}, 5000,
			10 * time.Second, 2 * time.Minute, true},
		{"soft-bottleneck-default-interval", testbed.SoftAlloc{WebThreads: 400, AppThreads: 3, AppConns: 20}, 5000,
			0, 100 * time.Second, true},
		// At 4000 users the 20-thread pools have comfortable headroom.
		{"healthy", testbed.SoftAlloc{WebThreads: 400, AppThreads: 20, AppConns: 20}, 4000,
			0, 100 * time.Second, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, staticTP := runElastic(t, ElasticConfig{Policy: PolicyStatic}, tc.soft, tc.users, tc.horizon)
			ctl, tb, tp := runElastic(t, ElasticConfig{Policy: PolicyTopJob, Interval: tc.interval},
				tc.soft, tc.users, tc.horizon)
			log := FormatDecisions(ctl.Decisions())
			grewAny, grewThreads, donated := false, false, false
			for _, d := range ctl.Decisions() {
				if d.To > d.From && strings.HasPrefix(d.Reason, "soft-bottleneck") {
					grewAny = true
					grewThreads = grewThreads || d.Axis == "app-threads"
				}
				if d.To < d.From && strings.HasPrefix(d.Reason, "donate to") {
					donated = true
				}
			}
			if !tc.bottleneck {
				if grewAny {
					t.Errorf("TOP_JOB grew a healthy allocation:\n%s", log)
				}
				if tp < staticTP*0.98 || tp > staticTP*1.02 {
					t.Errorf("TOP_JOB TP %.1f strays over 2%% from static TP %.1f:\n%s", tp, staticTP, log)
				}
				return
			}
			if !grewThreads {
				t.Fatalf("TOP_JOB never grew the bottlenecked threads axis:\n%s", log)
			}
			if !donated {
				t.Errorf("growth at the budget limit without a donor shrink:\n%s", log)
			}
			if got := tb.Tomcats[0].Threads.Capacity(); got <= 3 {
				t.Errorf("final threads capacity %d, want grown", got)
			}
			if tp < staticTP*1.3 {
				t.Errorf("TOP_JOB TP %.1f not clearly above static TP %.1f", tp, staticTP)
			}
		})
	}
}

func TestElasticShrinksIdleAllocation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		soft     testbed.SoftAlloc
		users    int
		interval time.Duration
		horizon  time.Duration
		reason   string // prefix of the shrink decision's reason
		// appLo <= final threads capacity < appHi.
		appLo, appHi int
	}{
		{"idle", testbed.SoftAlloc{WebThreads: 400, AppThreads: 100, AppConns: 50}, 300,
			10 * time.Second, 2 * time.Minute, "over-allocation", MinPer, 100},
		// 300 threads per Tomcat at 6000 users is far past the knee: the
		// pool fills with queued jobs, yet TOP_JOB must still release
		// threads without starving the tier.
		{"saturated", testbed.SoftAlloc{WebThreads: 400, AppThreads: 300, AppConns: 20}, 6000,
			0, 100 * time.Second, "donate to", 10, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctl, tb, _ := runElastic(t, ElasticConfig{Policy: PolicyTopJob, Interval: tc.interval},
				tc.soft, tc.users, tc.horizon)
			shrank := false
			for _, d := range ctl.Decisions() {
				if d.To < d.From && strings.HasPrefix(d.Reason, tc.reason) {
					shrank = true
				}
			}
			if !shrank {
				t.Fatalf("TOP_JOB never released an over-allocation (%s):\n%s", tc.reason, FormatDecisions(ctl.Decisions()))
			}
			if ctl.soft.Units(ctl.tb.Opts.Hardware) >= ctl.budget {
				t.Errorf("units %d did not drop below the budget %d", ctl.soft.Units(ctl.tb.Opts.Hardware), ctl.budget)
			}
			if got := tb.Tomcats[0].Threads.Capacity(); got < tc.appLo || got >= tc.appHi {
				t.Errorf("final threads capacity %d, want in [%d, %d)", got, tc.appLo, tc.appHi)
			}
		})
	}
}

func TestElasticRespectsBudgetAndCooldown(t *testing.T) {
	cfg := ElasticConfig{Policy: PolicyUniform, Interval: 10 * time.Second, Cooldown: 25 * time.Second}
	ctl, _, _ := runElastic(t, cfg,
		testbed.SoftAlloc{WebThreads: 300, AppThreads: 10, AppConns: 10}, 2000, 3*time.Minute)
	if len(ctl.Decisions()) == 0 {
		t.Fatal("UNIFORM took no rebalancing action on a lopsided allocation")
	}
	last := map[string]time.Duration{}
	for _, d := range ctl.Decisions() {
		if d.Units > ctl.budget {
			t.Errorf("decision exceeded the budget %d: %v", ctl.budget, d)
		}
		if prev, ok := last[d.Axis]; ok && d.At-prev < cfg.Cooldown {
			t.Errorf("axis %s resized %v after %v, inside the %v cooldown",
				d.Axis, d.At, prev, cfg.Cooldown)
		}
		last[d.Axis] = d.At
	}
}

func TestElasticDeterministicDecisionLog(t *testing.T) {
	run := func() string {
		ctl, _, _ := runElastic(t, ElasticConfig{Policy: PolicyTopJob, Interval: 10 * time.Second},
			testbed.SoftAlloc{WebThreads: 400, AppThreads: 3, AppConns: 20}, 5000, 90*time.Second)
		return FormatDecisions(ctl.Decisions())
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different decision logs:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
	if a == "" {
		t.Error("expected a non-empty decision log")
	}
}

func TestElasticResizeTracksTestbed(t *testing.T) {
	// ApplySoft must move every pool of the tier, and SoftUnits must agree
	// with the controller's accounting.
	tb := buildTB(t, testbed.SoftAlloc{WebThreads: 60, AppThreads: 4, AppConns: 4}, 7)
	next := testbed.SoftAlloc{WebThreads: 30, AppThreads: 8, AppConns: 6}
	if err := tb.ApplySoft(next); err != nil {
		t.Fatal(err)
	}
	for _, a := range tb.Apaches {
		if a.Workers.Capacity() != 30 {
			t.Errorf("%s capacity %d, want 30", a.Workers.Name(), a.Workers.Capacity())
		}
	}
	for _, tc := range tb.Tomcats {
		if tc.Threads.Capacity() != 8 || tc.Conns.Capacity() != 6 {
			t.Errorf("tomcat pools %d/%d, want 8/6", tc.Threads.Capacity(), tc.Conns.Capacity())
		}
	}
	if got, want := tb.SoftUnits(), 1*30+2*(8+6); got != want {
		t.Errorf("SoftUnits = %d, want %d", got, want)
	}
	if err := tb.ApplySoft(testbed.SoftAlloc{WebThreads: 0, AppThreads: 8, AppConns: 6}); err == nil {
		t.Error("ApplySoft accepted an invalid allocation")
	}
}

func TestElasticConfigDefaults(t *testing.T) {
	var c ElasticConfig
	c.applyDefaults()
	if c.Interval != 20*time.Second || c.MaxStep != 16 || c.Deadband != 2 ||
		c.Cooldown != 40*time.Second {
		t.Errorf("defaults %+v", c)
	}
}

func TestElasticDecisionString(t *testing.T) {
	d := ElasticDecision{At: 15 * time.Second, Policy: PolicyTopJob, Axis: "app-threads",
		From: 3, To: 5, Units: 440, Reason: "soft-bottleneck tomcat1/threads sat 100%"}
	s := d.String()
	for _, want := range []string{"TOP_JOB", "app-threads", "3", "5", "440", "soft-bottleneck"} {
		if !strings.Contains(s, want) {
			t.Errorf("decision string %q missing %q", s, want)
		}
	}
	if got := FormatDecisions([]ElasticDecision{d, d}); got != d.String()+"\n"+d.String()+"\n" {
		t.Errorf("FormatDecisions = %q", got)
	}
}

// TestHeldPeakNeedsPeakHold covers the peak rule at its edge: a level
// counts once the window spent PeakHold in total at or above it.
func TestHeldPeakNeedsPeakHold(t *testing.T) {
	window := func(top time.Duration) []time.Duration {
		return []time.Duration{0, 0, 18 * time.Second, 0, 0, top}
	}
	if got := heldPeak(window(900 * time.Millisecond)); got != 2 {
		t.Errorf("level 5 held 0.9s: peak %d, want 2", got)
	}
	if got := heldPeak(window(time.Second)); got != 5 {
		t.Errorf("level 5 held 1s: peak %d, want 5", got)
	}
	// Time at the levels above adds up: 0.5s at 4 and 0.5s at 3.
	if got := heldPeak([]time.Duration{0, 19 * time.Second, 0, 500 * time.Millisecond, 500 * time.Millisecond}); got != 3 {
		t.Errorf("1s in total at or above 3: peak %d, want 3", got)
	}
}

// A window that straddles the ramp-end ResetStats mixes two baselines, so
// the controller skips it. The first window is the case to watch: its
// baselines were all zero at attach, so no integral shrinks across the
// reset. UNIFORM acts at its first usable window.
func TestElasticSkipsWindowAcrossReset(t *testing.T) {
	tb := buildTB(t, testbed.SoftAlloc{WebThreads: 60, AppThreads: 4, AppConns: 4}, 23)
	const horizon = 31 * time.Second
	ctl, err := AttachElastic(tb, ElasticConfig{Policy: PolicyUniform, Interval: 15 * time.Second}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := rubbos.DefaultClientConfig(300)
	ccfg.RampUp = 5 * time.Second
	if _, err := tb.StartWorkload(ccfg, func(*rubbos.Interaction, time.Duration, time.Duration, error) {}); err != nil {
		t.Fatal(err)
	}
	tb.Env.At(10*time.Second, tb.ResetStats)
	tb.Env.Run(horizon)
	ds := ctl.Decisions()
	if len(ds) == 0 || ds[0].At != 30*time.Second {
		t.Fatalf("decisions %v; want the first at 30s, after the window the reset at 10s fell in", ds)
	}
}
