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
	"github.com/softres/ntier/internal/paper"
	"github.com/softres/ntier/internal/queuing"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/testbed"
)

// benchPaper runs the named reading of the paper's figure table alone at
// the benchmark horizon and reports its numbers.
func benchPaper(b *testing.B, name string) {
	for i := 0; i < b.N; i++ {
		r, d := readPaper(b, paper.Bench, name)
		for _, n := range r.Numbers {
			b.ReportMetric(n.Of(d), n.Name)
		}
	}
}

// BenchmarkFig2Goodput112 — Fig. 2: the practitioner allocation beats under-allocated pools.
func BenchmarkFig2Goodput112(b *testing.B) { benchPaper(b, "Fig2Goodput112") }

// BenchmarkFig3Crossover141 — Fig. 3(a,b): the small pools lead past the knee at tight SLAs.
func BenchmarkFig3Crossover141(b *testing.B) { benchPaper(b, "Fig3Crossover141") }

// BenchmarkFig3cRTDistribution — Fig. 3(c): the small pools have more sub-200 ms responses.
func BenchmarkFig3cRTDistribution(b *testing.B) { benchPaper(b, "Fig3cRTDistribution") }

// BenchmarkFig4ThreadPoolUnderAlloc — Fig. 4: too few Tomcat threads saturate the pool while its CPU idles.
func BenchmarkFig4ThreadPoolUnderAlloc(b *testing.B) { benchPaper(b, "Fig4ThreadPoolUnderAlloc") }

// BenchmarkFig5ConnPoolOverAlloc — Fig. 5: the smallest DB pool wins; C-JDBC GC explodes at the largest.
func BenchmarkFig5ConnPoolOverAlloc(b *testing.B) { benchPaper(b, "Fig5ConnPoolOverAlloc") }

// BenchmarkFig6ApacheBuffer — Fig. 6: goodput grows with the Apache pool; small pools starve C-JDBC.
func BenchmarkFig6ApacheBuffer(b *testing.B) { benchPaper(b, "Fig6ApacheBuffer") }

// BenchmarkFig7ApacheInternals — Fig. 7: past the knee a small Apache pool pins at its cap.
func BenchmarkFig7ApacheInternals(b *testing.B) { benchPaper(b, "Fig7ApacheInternals") }

// BenchmarkFig8LargeBuffer — Fig. 8: a large Apache pool keeps enough workers reaching Tomcat.
func BenchmarkFig8LargeBuffer(b *testing.B) { benchPaper(b, "Fig8LargeBuffer") }

// BenchmarkTable1Algorithm — Table I: Tomcat CPU critical on one shape, C-JDBC CPU on the other.
func BenchmarkTable1Algorithm(b *testing.B) { benchPaper(b, "Table1Algorithm") }

// BenchmarkFig10aValidate112 — Fig. 10(a): max TP peaks at a Tomcat pool in the low tens.
func BenchmarkFig10aValidate112(b *testing.B) { benchPaper(b, "Fig10aValidate112") }

// BenchmarkFig10bValidate141 — Fig. 10(b): max TP peaks at a single-digit DB connection pool.
func BenchmarkFig10bValidate141(b *testing.B) { benchPaper(b, "Fig10bValidate141") }

// BenchmarkAblationNoGC — GC model off: Fig. 5's large-pool penalty largely disappears.
func BenchmarkAblationNoGC(b *testing.B) { benchPaper(b, "AblationNoGC") }

// BenchmarkAblationNoFinWait — lingering close off: Fig. 6's small pool stops starving the back-end.
func BenchmarkAblationNoFinWait(b *testing.B) { benchPaper(b, "AblationNoFinWait") }

// BenchmarkAblationNoThrash — thrash model off: Fig. 3's larger pools stop losing.
func BenchmarkAblationNoThrash(b *testing.B) { benchPaper(b, "AblationNoThrash") }

// BenchmarkExtensionWriteMixDisk — beyond the paper: under a write-heavy
// mix the database disk (not any CPU) becomes the critical resource; the
// bench reports the disk-bound throughput ceiling and the disk utilization
// that reveals it.
func BenchmarkExtensionWriteMixDisk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := paperConfig(b, paper.Bench, "1/2/1/2", "400-30-20")
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
		cfg := paperConfig(b, paper.Bench, "1/2/1/2", "400-30-20")
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
			cfg := paperConfig(b, paper.Bench, "1/2/1/2", "400-15-6")
			cfg.Parallelism = p
			for i := 0; i < b.N; i++ {
				c, err := WorkloadSweep(cfg, users)
				if err != nil {
					b.Fatal(err)
				}
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
		cfg := paperConfig(b, paper.Bench, "1/2/1/2", "200-20-10")
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
