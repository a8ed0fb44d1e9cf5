package search

import (
	"math"
	"testing"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/jvm"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
)

// quickstartConfig mirrors the README quickstart topology: 1/2/1/2
// hardware under the default RUBBoS-style mix.
func quickstartConfig(soft testbed.SoftAlloc, users int) experiment.RunConfig {
	return experiment.RunConfig{
		Testbed: testbed.Options{
			Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
			Soft:     soft,
			Seed:     21,
		},
		Users:   users,
		RampUp:  15 * time.Second,
		Measure: 30 * time.Second,
	}
}

// The surrogate models the simulator's heaps: each JVM tier's live set
// agrees with the built testbed's, and so do the heap and its floor.
func TestSurrogateJVMsMatchSimulator(t *testing.T) {
	cfg := quickstartConfig(testbed.SoftAlloc{WebThreads: 50, AppThreads: 6, AppConns: 4}, 50)
	cfg.RampUp, cfg.Measure = time.Second, 2*time.Second
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sur, err := Calibrate(res)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := testbed.Build(cfg.Testbed)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	soft := cfg.Testbed.Soft
	for _, c := range []struct {
		name  string
		sim   *jvm.JVM
		model jvm.Config
		slots int
		want  jvm.Config
	}{
		{"tomcat", tb.Tomcats[0].JVM, sur.AppJVM, soft.AppThreads + soft.AppConns, tier.DefaultTomcatConfig(soft.AppThreads, soft.AppConns).JVM},
		{"cjdbc", tb.CJDBCs[0].JVM, sur.MidJVM, tb.CJDBCs[0].UpstreamConns(), tier.DefaultCJDBCConfig().JVM},
	} {
		if sim, model := c.sim.Stats().LiveMiB, c.model.LiveMiB(c.slots); sim != model {
			t.Errorf("%s live set: simulator %v MiB, surrogate %v MiB", c.name, sim, model)
		}
		if c.model != c.want {
			t.Errorf("%s JVM: surrogate %+v, simulator %+v", c.name, c.model, c.want)
		}
	}
}

// TestSurrogateValidation cross-checks the MVA surrogate against the
// simulator on the quickstart topology: calibrate from one trial at 2000
// users, then predict the 4000-user point it has never seen.
//
// Tolerances and their rationale:
//   - Throughput within 15% below saturation. The surrogate is a separable
//     product-form model; the simulator has non-product effects (pool
//     admission, finite buffers), so exact agreement is impossible, but
//     both exploration and the paper's own MVA comparisons sit well inside
//     15% before the knee (observed here: ~2%).
//   - Mean response time within a factor of 3 below saturation. Response
//     time is far more sensitive than throughput to the queueing details
//     the surrogate abstracts away; a factor-3 band still separates the
//     "tens of ms" regime from SLA-violating seconds.
//   - An under-allocated pool must be predicted at most 75% of an adequate
//     allocation's throughput at the same workload — the ranking signal
//     the optimizer actually relies on (direction, not magnitude).
func TestSurrogateValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation cross-check skipped in short mode")
	}
	soft := testbed.SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 6}
	calRes, err := experiment.Run(quickstartConfig(soft, 2000))
	if err != nil {
		t.Fatal(err)
	}
	sur, err := Calibrate(calRes)
	if err != nil {
		t.Fatal(err)
	}
	if sur.WebDemand <= 0 || sur.AppDemand <= 0 || sur.MidDemand <= 0 || sur.DBDemand <= 0 {
		t.Fatalf("calibration produced non-positive demands: %+v", sur)
	}
	if sur.QueriesPerReq < 1 {
		t.Fatalf("QueriesPerReq = %.2f, want >= 1", sur.QueriesPerReq)
	}

	relErr := func(pred, meas float64) float64 {
		return math.Abs(pred-meas) / meas
	}

	// In-sample: the calibration point itself.
	p, err := sur.Predict(soft, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(p.Throughput, calRes.Throughput()); e > 0.15 {
		t.Errorf("calibration-point throughput: predicted %.1f, measured %.1f (err %.1f%%, tol 15%%)",
			p.Throughput, calRes.Throughput(), e*100)
	}

	// Out-of-sample: double the workload, still below saturation.
	simRes, err := experiment.Run(quickstartConfig(soft, 4000))
	if err != nil {
		t.Fatal(err)
	}
	p4, err := sur.Predict(soft, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(p4.Throughput, simRes.Throughput()); e > 0.15 {
		t.Errorf("4000-user throughput: predicted %.1f, measured %.1f (err %.1f%%, tol 15%%)",
			p4.Throughput, simRes.Throughput(), e*100)
	}
	predR, simR := p4.Response.Seconds(), simRes.MeanRT().Seconds()
	if predR > 3*simR || simR > 3*predR {
		t.Errorf("4000-user response: predicted %v, measured %v (outside factor-3 band)",
			p4.Response, simRes.MeanRT())
	}

	// Direction: a starved thread pool must be predicted well below the
	// adequate allocation at the same workload (the Fig. 2 signature).
	starved, err := sur.Predict(testbed.SoftAlloc{WebThreads: 400, AppThreads: 4, AppConns: 2}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if starved.Throughput > 0.75*p4.Throughput {
		t.Errorf("under-allocation not penalized: starved predicted %.1f vs adequate %.1f",
			starved.Throughput, p4.Throughput)
	}
	if starved.Limit != "app-threads" {
		t.Errorf("starved limit = %q, want app-threads", starved.Limit)
	}
}

func TestPredictErrors(t *testing.T) {
	sur := &Surrogate{
		HW:        testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
		Think:     7 * time.Second,
		WebDemand: time.Millisecond, AppDemand: 2 * time.Millisecond,
		MidDemand: time.Millisecond, DBDemand: 2 * time.Millisecond,
		QueriesPerReq: 1,
		AppJVM:        jvm.DefaultConfig(), MidJVM: jvm.DefaultConfig(),
	}
	if _, err := sur.Predict(testbed.SoftAlloc{}, 100); err == nil {
		t.Error("Predict accepted an empty allocation")
	}
	if _, err := sur.Predict(testbed.SoftAlloc{WebThreads: 10, AppThreads: 5, AppConns: 2}, 0); err == nil {
		t.Error("Predict accepted zero users")
	}
}

func TestGoodputApproximation(t *testing.T) {
	p := Prediction{Throughput: 100, Response: 500 * time.Millisecond}
	g1, g2 := p.Goodput(500*time.Millisecond), p.Goodput(2*time.Second)
	if !(g1 > 0 && g1 < g2 && g2 < 100) {
		t.Errorf("goodput not monotone in SLA: %.1f, %.1f", g1, g2)
	}
	fast := Prediction{Throughput: 100, Response: 0}
	if g := fast.Goodput(time.Second); g != 100 {
		t.Errorf("zero-response goodput = %.1f, want full throughput", g)
	}
}

func TestGCFraction(t *testing.T) {
	cfg := jvm.DefaultConfig()
	if f := gcFraction(cfg, 100, 0); f != 0 {
		t.Errorf("zero allocation rate: gc fraction %.2f, want 0", f)
	}
	small := gcFraction(cfg, 20, 50)
	big := gcFraction(cfg, 2000, 50)
	if !(small >= 0 && small < big) {
		t.Errorf("gc fraction not increasing in slots: %.3f vs %.3f", small, big)
	}
	if f := gcFraction(cfg, 100000, 1e9); f != 0.9 {
		t.Errorf("thrashing gc fraction = %.2f, want clamp at 0.9", f)
	}
}

// The declared demand model (tier.DeclaredDemand) against the utilization
// law: one below-knee trial per hardware shape, read the way Calibrate
// reads it (CPU utilization minus GC over throughput, summed per tier, and
// queries per request from C-JDBC's visit rate). Tolerance 3% per tier and
// 1% on Req_ratio. Service times are lognormal with CV 0.8, so about 8,700
// requests in the window put one standard error of a tier's mean near
// 0.9%; sessions start at the home page, so the mix also nears its
// stationary weights only after a few requests per user. An omitted
// charge the size of C-JDBC's per-query validation (13% of its demand)
// lies far outside the band. Measured at seed 21, 15 s + 30 s, 2000 users:
// every tier within 1.6% and Req_ratio within 0.5% on both shapes.
func TestDeclaredDemandsMatchUtilizationLaw(t *testing.T) {
	declared := tier.DeclaredDemand(nil)
	soft := testbed.SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 6}
	for _, hw := range []testbed.Hardware{{Web: 1, App: 2, Mid: 1, DB: 2}, {Web: 1, App: 4, Mid: 1, DB: 4}} {
		cfg := quickstartConfig(soft, 2000)
		cfg.Testbed.Hardware = hw
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sur, err := Calibrate(res)
		if err != nil {
			t.Fatal(err)
		}
		gap := func(measured, want float64) float64 { return (measured - want) / want }
		for _, c := range []struct {
			name           string
			measured, want time.Duration
		}{
			{"Apache", sur.WebDemand, declared.Web},
			{"Tomcat", sur.AppDemand, declared.App},
			{"C-JDBC", sur.MidDemand, declared.Mid},
			{"MySQL", sur.DBDemand, declared.DB},
		} {
			g := gap(float64(c.measured), float64(c.want))
			t.Logf("%v %s: measured %v, declared %v (%+.2f%%)", hw, c.name, c.measured, c.want, 100*g)
			if math.Abs(g) > 0.03 {
				t.Errorf("%v %s demand: measured %v, declared %v (gap %+.2f%%, tol 3%%)",
					hw, c.name, c.measured, c.want, 100*g)
			}
		}
		g := gap(sur.QueriesPerReq, declared.Queries)
		t.Logf("%v Req_ratio: measured %.4f, declared %.4f (%+.2f%%)", hw, sur.QueriesPerReq, declared.Queries, 100*g)
		if math.Abs(g) > 0.01 {
			t.Errorf("%v Req_ratio: measured %.4f, declared %.4f (gap %+.2f%%, tol 1%%)",
				hw, sur.QueriesPerReq, declared.Queries, 100*g)
		}
	}
}

// C-JDBC allocates heap per query, so at throughput x the surrogate's
// C-JDBC collector must see x × Req_ratio × the per-query allocation, not
// x × the per-query allocation. 200 connections per Tomcat pin enough live
// heap that the GC share tells the two rates apart.
func TestSurrogateCJDBCAllocRate(t *testing.T) {
	cfg := quickstartConfig(testbed.SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 6}, 1000)
	cfg.RampUp, cfg.Measure = 5*time.Second, 10*time.Second
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sur, err := Calibrate(res)
	if err != nil {
		t.Fatal(err)
	}
	soft := testbed.SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 200}
	p, err := sur.Predict(soft, 6000)
	if err != nil {
		t.Fatal(err)
	}
	perQuery := rubbos.NewTable().Items[rubbos.StoriesOfTheDay].AllocCJDBCMiB
	rate := p.Throughput * tier.DeclaredDemand(nil).Queries * perQuery
	midSlots := sur.HW.App * soft.AppConns / sur.HW.Mid
	want := gcFraction(sur.MidJVM, midSlots, rate/float64(sur.HW.Mid))
	if want <= 0 || want >= 0.9 {
		t.Fatalf("expected C-JDBC GC share %.3f is not informative", want)
	}
	if math.Abs(p.MidGCFrac-want) > 1e-3*want {
		t.Errorf("C-JDBC GC share %.4f at %.1f req/s, want %.4f (allocation %.2f MiB/s)",
			p.MidGCFrac, p.Throughput, want, rate)
	}
}
