// Benchmark harness: one target per table and figure of the paper's
// evaluation. Each benchmark runs a scaled-down version of the experiment
// (short ramp and measurement windows) and reports the figure's headline
// quantities via b.ReportMetric, so `go test -bench=.` regenerates the
// shape of every result: who wins, by what factor, and where the
// crossovers fall. `ntier figures` produces the full-resolution datasets
// (including paper-scale 8-min/12-min trials with -full).
package ntier

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/fleet"
	"github.com/softres/ntier/internal/queuing"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
)

// benchConfig returns a scaled-down trial configuration.
func benchConfig(b *testing.B, hw, soft string) RunConfig {
	b.Helper()
	h, err := ParseHardware(hw)
	if err != nil {
		b.Fatal(err)
	}
	s, err := ParseSoftAlloc(soft)
	if err != nil {
		b.Fatal(err)
	}
	return RunConfig{
		Testbed: TestbedOptions{Hardware: h, Soft: s, Seed: 1},
		RampUp:  15 * time.Second,
		Measure: 30 * time.Second,
	}
}

func mustSweep(b *testing.B, cfg RunConfig, users []int) *Curve {
	b.Helper()
	c, err := WorkloadSweep(cfg, users)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkFig2Goodput112 — paper Fig. 2: goodput of 1/2/1/2 under the
// under-allocated 400-6-6 vs the practitioner 400-15-6, three SLA
// thresholds. Expected shape: 400-15-6 dominates, and the gap widens as
// the threshold tightens.
func BenchmarkFig2Goodput112(b *testing.B) {
	users := []int{4400, 6000}
	for i := 0; i < b.N; i++ {
		low := mustSweep(b, benchConfig(b, "1/2/1/2", "400-6-6"), users)
		good := mustSweep(b, benchConfig(b, "1/2/1/2", "400-15-6"), users)
		for j, n := range users {
			for _, th := range sla.StandardThresholds {
				label := fmt.Sprintf("g%.1fs_wl%d", th.Seconds(), n)
				b.ReportMetric(low.Goodputs(th)[j], "400-6-6_"+label)
				b.ReportMetric(good.Goodputs(th)[j], "400-15-6_"+label)
			}
		}
	}
}

// BenchmarkFig3Crossover141 — paper Fig. 3(a,b): the same allocations on
// 1/4/1/4. Expected shape: near-parity below the knee, 400-6-6 (the
// "non-intuitive" small pool) ahead at tight thresholds past it.
func BenchmarkFig3Crossover141(b *testing.B) {
	users := []int{6600, 7000, 7400}
	for i := 0; i < b.N; i++ {
		low := mustSweep(b, benchConfig(b, "1/4/1/4", "400-6-6"), users)
		high := mustSweep(b, benchConfig(b, "1/4/1/4", "400-15-6"), users)
		for j, n := range users {
			th := 500 * time.Millisecond
			b.ReportMetric(low.Goodputs(th)[j], fmt.Sprintf("400-6-6_g0.5s_wl%d", n))
			b.ReportMetric(high.Goodputs(th)[j], fmt.Sprintf("400-15-6_g0.5s_wl%d", n))
		}
	}
}

// BenchmarkFig3cRTDistribution — paper Fig. 3(c): response-time
// distribution at workload 7000; the small pool has more sub-200ms
// responses.
func BenchmarkFig3cRTDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, soft := range []string{"400-6-6", "400-15-6"} {
			cfg := benchConfig(b, "1/4/1/4", soft)
			cfg.Users = 7000
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			fr := res.SLA.Histogram().Fractions()
			b.ReportMetric(fr[0]*100, soft+"_pct_rt<0.2s")
		}
	}
}

// BenchmarkFig4ThreadPoolUnderAlloc — paper Fig. 4: Tomcat thread pool
// {6,10,20,200} on 1/2/1/2. Expected: goodput rises 6→10→20; 200 gives
// part back (GC + scheduling overhead on the critical CPU); pool 6
// saturates (soft bottleneck) while its CPU idles.
func BenchmarkFig4ThreadPoolUnderAlloc(b *testing.B) {
	users := []int{5200, 6000}
	for i := 0; i < b.N; i++ {
		points, err := AllocSweep(benchConfig(b, "1/2/1/2", "400-15-20"), users,
			[]int{6, 10, 20, 200}, VaryAppThreads)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			label := fmt.Sprintf("threads%d", p.Soft.AppThreads)
			b.ReportMetric(p.Curve.MaxGoodput(2*time.Second), label+"_maxGoodput2s")
			last := p.Curve.Results[len(p.Curve.Results)-1]
			b.ReportMetric(experiment.TierCPU(last.Tomcat)*100, label+"_tomcatCPU%")
			b.ReportMetric(last.Tomcat[0].Pool("/threads").Saturated*100, label+"_poolSat%")
		}
	}
}

// BenchmarkFig5ConnPoolOverAlloc — paper Fig. 5: Tomcat DB connection pool
// {10,50,100,200} on 1/4/1/4 with 200 threads. Expected: the smallest pool
// wins; C-JDBC CPU grows super-linearly with the pool; GC time explodes at
// 200 connections.
func BenchmarkFig5ConnPoolOverAlloc(b *testing.B) {
	users := []int{7000, 7800}
	for i := 0; i < b.N; i++ {
		points, err := AllocSweep(benchConfig(b, "1/4/1/4", "400-200-10"), users,
			[]int{10, 50, 100, 200}, VaryAppConns)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			label := fmt.Sprintf("conns%d", p.Soft.AppConns)
			b.ReportMetric(p.Curve.MaxThroughput(), label+"_maxTP")
			last := p.Curve.Results[len(p.Curve.Results)-1]
			b.ReportMetric(last.CJDBC[0].GC.GCFraction*100, label+"_cjdbcGC%")
		}
	}
}

// BenchmarkFig6ApacheBuffer — paper Fig. 6: Apache worker pool
// {100,200,300,400} on 1/4/1/4. Expected: goodput grows with the buffer;
// C-JDBC CPU *decreases* with workload for small pools.
func BenchmarkFig6ApacheBuffer(b *testing.B) {
	users := []int{6600, 7400}
	for i := 0; i < b.N; i++ {
		points, err := AllocSweep(benchConfig(b, "1/4/1/4", "400-6-20"), users,
			[]int{100, 200, 300, 400}, VaryWebThreads)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			label := fmt.Sprintf("web%d", p.Soft.WebThreads)
			b.ReportMetric(p.Curve.MaxThroughput(), label+"_maxTP")
			first := p.Curve.Results[0].CJDBC[0].CPUUtil
			last := p.Curve.Results[len(p.Curve.Results)-1].CJDBC[0].CPUUtil
			b.ReportMetric((last-first)*100, label+"_cjdbcCPUdelta%")
		}
	}
}

// BenchmarkFig7ApacheInternals — paper Fig. 7: per-second internals of a
// 300-worker Apache at workloads 6000 vs 7400. Expected: at 7400 the
// active workers pin at the cap while the Tomcat-interacting share drops,
// and per-request worker busy time spikes (FIN waits).
func BenchmarkFig7ApacheInternals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, wl := range []int{6000, 7400} {
			cfg := benchConfig(b, "1/4/1/4", "300-6-20")
			cfg.Users = wl
			cfg.Timeline = true
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			tl := res.Timeline
			var act, conn, pt float64
			for j := range tl.ActiveRaw {
				act += tl.ActiveRaw[j]
				conn += tl.ConnectRaw[j]
			}
			for _, v := range tl.PTTotalMS {
				pt += v
			}
			n := float64(len(tl.ActiveRaw))
			b.ReportMetric(act/n, fmt.Sprintf("wl%d_activeWorkers", wl))
			b.ReportMetric(conn/n, fmt.Sprintf("wl%d_connectingTomcat", wl))
			b.ReportMetric(pt/float64(len(tl.PTTotalMS)), fmt.Sprintf("wl%d_PTtotalMs", wl))
		}
	}
}

// BenchmarkFig8LargeBuffer — paper Fig. 8: the same internals with 400
// workers at 7400. Expected: the Tomcat-interacting worker count stays
// well above the 24 concurrent the back-end needs.
func BenchmarkFig8LargeBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(b, "1/4/1/4", "400-6-20")
		cfg.Users = 7400
		cfg.Timeline = true
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tl := res.Timeline
		var conn float64
		for _, v := range tl.ConnectRaw {
			conn += v
		}
		b.ReportMetric(conn/float64(len(tl.ConnectRaw)), "connectingTomcat")
		b.ReportMetric(res.Throughput(), "TP")
	}
}

// BenchmarkTable1Algorithm — paper Table I: the full allocation algorithm
// on both hardware configurations. Expected: Tomcat CPU critical on
// 1/2/1/2, C-JDBC CPU critical on 1/4/1/4, with pool recommendations near
// the Fig. 10 sweep optima.
func BenchmarkTable1Algorithm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, hw := range []string{"1/2/1/2", "1/4/1/4"} {
			cfg := TunerConfig{Base: benchConfig(b, hw, "400-15-20")}
			rep, err := Tune(cfg)
			if err != nil {
				b.Fatal(err)
			}
			tag := map[string]string{"1/2/1/2": "112", "1/4/1/4": "144"}[hw]
			b.ReportMetric(float64(rep.SaturationWL), tag+"_WLmin")
			b.ReportMetric(rep.MinJobs, tag+"_minJobs")
			if hw == "1/2/1/2" {
				b.ReportMetric(float64(rep.Recommended.AppThreads), tag+"_recThreads")
			} else {
				b.ReportMetric(float64(rep.Recommended.AppConns), tag+"_recConns")
			}
		}
	}
}

// BenchmarkFig10aValidate112 — paper Fig. 10(a): max throughput vs Tomcat
// thread pool size on 1/2/1/2. Expected: a peak in the low tens, far below
// the rule-of-thumb hundreds.
func BenchmarkFig10aValidate112(b *testing.B) {
	users := []int{5600, 6000}
	for i := 0; i < b.N; i++ {
		points, err := AllocSweep(benchConfig(b, "1/2/1/2", "400-15-20"), users,
			[]int{6, 13, 20, 60, 200}, VaryAppThreads)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.Curve.MaxThroughput(), fmt.Sprintf("threads%d_maxTP", p.Soft.AppThreads))
		}
	}
}

// BenchmarkFig10bValidate141 — paper Fig. 10(b): max throughput vs Tomcat
// DB connection pool size on 1/4/1/4 with 200 threads. Expected: a peak at
// a single-digit pool, declining beyond it.
func BenchmarkFig10bValidate141(b *testing.B) {
	users := []int{6800, 7200}
	for i := 0; i < b.N; i++ {
		points, err := AllocSweep(benchConfig(b, "1/4/1/4", "400-200-10"), users,
			[]int{2, 4, 6, 8, 12, 20}, VaryAppConns)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.Curve.MaxThroughput(), fmt.Sprintf("conns%d_maxTP", p.Soft.AppConns))
		}
	}
}

// BenchmarkAblationNoGC disables the JVM GC model and re-runs the Fig. 5
// contrast. Expected: the conns-200 penalty largely disappears,
// attributing Fig. 5 to garbage collection.
func BenchmarkAblationNoGC(b *testing.B) {
	users := []int{7400}
	for i := 0; i < b.N; i++ {
		for _, disable := range []bool{false, true} {
			cfg := benchConfig(b, "1/4/1/4", "400-200-200")
			cfg.Testbed.DisableGC = disable
			curve := mustSweep(b, cfg, users)
			label := "gcOn"
			if disable {
				label = "gcOff"
			}
			b.ReportMetric(curve.MaxThroughput(), label+"_conns200_TP")
		}
	}
}

// BenchmarkAblationNoFinWait disables Apache's lingering close and re-runs
// the Fig. 6 contrast. Expected: the small worker pool stops starving the
// back-end, attributing Fig. 6 to the FIN wait.
func BenchmarkAblationNoFinWait(b *testing.B) {
	users := []int{7400}
	for i := 0; i < b.N; i++ {
		for _, disable := range []bool{false, true} {
			cfg := benchConfig(b, "1/4/1/4", "100-6-20")
			cfg.Testbed.DisableFinWait = disable
			curve := mustSweep(b, cfg, users)
			label := "finOn"
			if disable {
				label = "finOff"
			}
			b.ReportMetric(curve.MaxThroughput(), label+"_web100_TP")
		}
	}
}

// BenchmarkAblationNoThrash disables the C-JDBC scheduling-overhead model
// and re-runs the Fig. 3 contrast at high workload. Expected: the
// over-allocated 400-15-6 stops losing to 400-6-6.
func BenchmarkAblationNoThrash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, disable := range []bool{false, true} {
			cfg := benchConfig(b, "1/4/1/4", "400-15-6")
			if disable {
				cfg.Testbed.TuneCJDBC = func(c *tier.CJDBCConfig) {
					c.ThrashCoeff = 0
					c.CtxSwitchCoeff = 0
				}
			}
			cfg.Users = 7400
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			label := "thrashOn"
			if disable {
				label = "thrashOff"
			}
			b.ReportMetric(res.Goodput(time.Second), label+"_g1s")
		}
	}
}

// BenchmarkExtensionWriteMixDisk — beyond the paper: under a write-heavy
// mix the database disk (not any CPU) becomes the critical resource; the
// bench reports the disk-bound throughput ceiling and the disk utilization
// that reveals it.
func BenchmarkExtensionWriteMixDisk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(b, "1/2/1/2", "400-30-20")
		cfg.Users = 3000
		cfg.Mix = rubbos.ReadWriteMix()
		rw, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rw.Throughput(), "readwrite_TP")
		b.ReportMetric(rw.MySQL[0].DiskUtil*100, "readwrite_disk%")

		cfg.Mix = rubbos.WriteHeavyMix()
		wh, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(wh.Throughput(), "writeheavy_TP")
		b.ReportMetric(wh.MySQL[0].DiskUtil*100, "writeheavy_disk%")
	}
}

// BenchmarkExtensionMVAAccuracy — beyond the paper: the analytic MVA
// solver parameterized from one light-load measurement predicts the
// simulator's throughput below saturation; the bench reports the relative
// error at 2x the calibration load.
func BenchmarkExtensionMVAAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(b, "1/2/1/2", "400-30-20")
		cfg.Users = 2000
		light, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var names []string
		var utils []float64
		for _, s := range light.Servers() {
			names = append(names, s.Name)
			utils = append(utils, s.CPUUtil)
		}
		stations, err := queuing.DemandsFromMeasurement(names, utils, light.Throughput())
		if err != nil {
			b.Fatal(err)
		}
		pred, err := queuing.MVA(stations, 7*time.Second, 4000)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Users = 4000
		heavy, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pred.Throughput, "mva_X")
		b.ReportMetric(heavy.Throughput(), "sim_X")
		b.ReportMetric((pred.Throughput/heavy.Throughput()-1)*100, "relerr%")
	}
}

// BenchmarkExtensionAdaptiveRecovery — beyond the paper: the elastic
// controller's TOP_JOB policy grows a 3-thread pool out of its software
// bottleneck; the bench reports static vs adaptive steady-state throughput.
func BenchmarkExtensionAdaptiveRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, controlled := range []bool{false, true} {
			tb, err := testbed.Build(testbed.Options{
				Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
				Soft:     testbed.SoftAlloc{WebThreads: 400, AppThreads: 3, AppConns: 20},
				Seed:     41,
			})
			if err != nil {
				b.Fatal(err)
			}
			if controlled {
				if _, err := adaptive.AttachElastic(tb, adaptive.ElasticConfig{Policy: adaptive.PolicyTopJob}); err != nil {
					b.Fatal(err)
				}
			}
			ccfg := rubbos.DefaultClientConfig(5000)
			ccfg.RampUp = 10 * time.Second
			var late uint64
			if _, err := tb.StartWorkload(ccfg, func(it *rubbos.Interaction, issued, rt time.Duration, err error) {
				if issued >= 60*time.Second {
					late++
				}
			}); err != nil {
				b.Fatal(err)
			}
			tb.Env.Run(90 * time.Second)
			label := "static_TP"
			if controlled {
				label = "adaptive_TP"
			}
			b.ReportMetric(float64(late)/30, label)
			tb.Close()
		}
	}
}

// BenchmarkParallelSweep — the parallel trial executor: the same 8-trial
// workload sweep serial, with a 4-worker pool, and with one worker per
// CPU. Expected shape: on a 4-core machine parallel=4 is >= 2x faster
// than parallel=1 (the trials are independent and CPU-bound); the sweep
// outputs are byte-identical (asserted by tests, not here).
func BenchmarkParallelSweep(b *testing.B) {
	users := []int{4400, 4800, 5200, 5600, 6000, 6400, 6800, 7200}
	pool := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		pool = append(pool, n)
	}
	for _, p := range pool {
		b.Run(fmt.Sprintf("parallel=%d", p), func(b *testing.B) {
			cfg := benchConfig(b, "1/2/1/2", "400-15-6")
			cfg.Parallelism = p
			for i := 0; i < b.N; i++ {
				c := mustSweep(b, cfg, users)
				b.ReportMetric(c.MaxThroughput(), "maxTP")
			}
		})
	}
}

// BenchmarkSearch — the surrogate-guided budgeted optimizer: calibrate
// the MVA surrogate from one trial, pre-rank the 2×2 candidate grid
// analytically, and spend a 4-trial budget by successive halving over a
// two-workload ladder. Reported metrics: the best goodput found at the
// 1 s SLA and the trials actually spent (the point of the surrogate is
// that this stays far below the exhaustive grid).
func BenchmarkSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(b, "1/2/1/2", "200-20-10")
		cfg.Testbed.Seed = 7
		cfg.RampUp = 2 * time.Second
		cfg.Measure = 6 * time.Second
		out, err := Search(SearchOptions{
			Base:       cfg,
			WebThreads: []int{200},
			AppThreads: []int{2, 8},
			AppConns:   []int{2, 8},
			Workloads:  []int{300, 900},
			SLA:        time.Second,
			Budget:     4,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(out.BestGoodput, "bestGoodput")
		b.ReportMetric(float64(out.Trials), "trials")
	}
}

// BenchmarkFleetSweep — the multi-tenant consolidation racer: the 3-tenant
// noisy-neighbor roster (a soft-over-allocated hot tenant between two light
// ones) on an 8-node pool, swept across all three placements. Reported
// metrics: tenants meeting their SLO under PACKED vs GREEDY (expected
// shape: GREEDY keeps all 3, density-first PACKED loses the co-located
// victim) and GREEDY's fleet goodput per node.
func BenchmarkFleetSweep(b *testing.B) {
	hw := Hardware{Web: 1, App: 1, Mid: 1, DB: 1}
	light := SoftAlloc{WebThreads: 60, AppThreads: 4, AppConns: 4}
	for i := 0; i < b.N; i++ {
		out, err := experiment.FleetSweep(experiment.FleetSweepConfig{
			Run: RunConfig{RampUp: 15 * time.Second, Measure: 30 * time.Second},
			Fleet: fleet.Options{
				Nodes: 8, SlotsPerNode: 2, Seed: 1,
				Tenants: []fleet.TenantSpec{
					{Name: "vic", Hardware: hw, Soft: light, Users: 400},
					{Name: "aggr", Hardware: hw,
						Soft:  SoftAlloc{WebThreads: 300, AppThreads: 30, AppConns: 20},
						Users: 3000},
					{Name: "vic2", Hardware: hw, Soft: light, Users: 400},
				},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		packed := out.Result(fleet.PlacementPacked, 3, 1)
		greedy := out.Result(fleet.PlacementGreedy, 3, 1)
		b.ReportMetric(float64(packed.SLOAttained()), "packedSLOMet")
		b.ReportMetric(float64(greedy.SLOAttained()), "greedySLOMet")
		b.ReportMetric(greedy.GoodputPerNode, "greedyGoodputPerNode")
	}
}
