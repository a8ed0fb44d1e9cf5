package ntier

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/sla"
)

func testRunConfig(t *testing.T, hw, soft string, users int) RunConfig {
	t.Helper()
	h, err := ParseHardware(hw)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSoftAlloc(soft)
	if err != nil {
		t.Fatal(err)
	}
	return RunConfig{
		Testbed: TestbedOptions{Hardware: h, Soft: s, Seed: 2},
		Users:   users,
		RampUp:  12 * time.Second,
		Measure: 20 * time.Second,
	}
}

func TestFacadeRun(t *testing.T) {
	res, err := Run(testRunConfig(t, "1/2/1/2", "400-15-6", 1200))
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
	if !strings.Contains(res.Describe(), "1/2/1/2") {
		t.Errorf("describe: %s", res.Describe())
	}
}

func TestFacadeParseErrors(t *testing.T) {
	if _, err := ParseHardware("nope"); err == nil {
		t.Error("bad hardware accepted")
	}
	if _, err := ParseSoftAlloc("nope"); err == nil {
		t.Error("bad soft allocation accepted")
	}
}

func TestFacadeMixes(t *testing.T) {
	browse := rubbos.BrowseOnlyMix()
	rw := rubbos.ReadWriteMix()
	if browse == nil || rw == nil {
		t.Fatal("nil mixes")
	}
	if browse.Name == rw.Name {
		t.Error("mixes should be distinct")
	}
	// The read/write mix must run end to end too.
	cfg := testRunConfig(t, "1/2/1/2", "400-15-6", 800)
	cfg.Mix = rw
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput() <= 0 {
		t.Error("read/write mix produced no throughput")
	}
}

func TestFacadeStandardThresholds(t *testing.T) {
	if len(sla.StandardThresholds) != 3 {
		t.Fatalf("thresholds %v", sla.StandardThresholds)
	}
	want := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second}
	for i, th := range sla.StandardThresholds {
		if th != want[i] {
			t.Errorf("threshold %d = %v, want %v", i, th, want[i])
		}
	}
}

func TestFacadeWorkloadSweepAndTable(t *testing.T) {
	cfg := testRunConfig(t, "1/2/1/2", "400-15-6", 0)
	curve, err := WorkloadSweep(cfg, []int{400, 800})
	if err != nil {
		t.Fatal(err)
	}
	tbl := CurveTable("facade", 2*time.Second, curve)
	if !strings.Contains(tbl.String(), "800") {
		t.Errorf("table:\n%s", tbl)
	}
}

func TestFacadeAblationSwitches(t *testing.T) {
	// GC and FIN-wait ablations must change behaviour at stress points.
	base := testRunConfig(t, "1/4/1/4", "100-6-20", 7400)
	on, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	off := base
	off.Testbed.DisableFinWait = true
	offRes, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if offRes.Throughput() < on.Throughput()*2 {
		t.Errorf("FIN ablation should unthrottle the 100-worker pool: %.1f vs %.1f",
			on.Throughput(), offRes.Throughput())
	}
}

func TestFacadeRevenue(t *testing.T) {
	res, err := Run(testRunConfig(t, "1/2/1/2", "400-15-6", 800))
	if err != nil {
		t.Fatal(err)
	}
	// At light load everything meets the SLA: revenue = total * earning.
	rev := res.SLA.Revenue(2*time.Second, 0.01, 0.05)
	want := float64(res.SLA.Total()) * 0.01
	if math.Abs(rev-want) > want*0.01 {
		t.Errorf("light-load revenue %.2f, want ~%.2f", rev, want)
	}
}

// TestPaperHeadlineUnderAllocation pins the paper's central Fig. 2 claim at
// the repository level: on 1/2/1/2 near saturation, the under-allocated
// 400-6-6 loses goodput versus 400-15-6, and the gap widens as the SLA
// tightens.
func TestPaperHeadlineUnderAllocation(t *testing.T) {
	low, err := Run(testRunConfig(t, "1/2/1/2", "400-6-6", 5200))
	if err != nil {
		t.Fatal(err)
	}
	good, err := Run(testRunConfig(t, "1/2/1/2", "400-15-6", 5200))
	if err != nil {
		t.Fatal(err)
	}
	prevRatio := 0.0
	for i := len(sla.StandardThresholds) - 1; i >= 0; i-- { // 2s, 1s, 0.5s
		th := sla.StandardThresholds[i]
		g, l := good.Goodput(th), low.Goodput(th)
		if g < l {
			t.Errorf("at %v: 400-15-6 goodput %.1f < 400-6-6 %.1f", th, g, l)
		}
		ratio := math.Inf(1)
		if l > 0 {
			ratio = g / l
		}
		if ratio < prevRatio-0.05 {
			t.Errorf("gap should widen as SLA tightens: ratio %.2f at %v after %.2f", ratio, th, prevRatio)
		}
		if !math.IsInf(ratio, 1) {
			prevRatio = ratio
		}
	}
}

// TestPaperHeadlineBuffering pins the Fig. 6 claim: a larger Apache pool
// outperforms a small one at high workload, and the small pool's C-JDBC
// utilization is lower (starved back-end).
func TestPaperHeadlineBuffering(t *testing.T) {
	small, err := Run(testRunConfig(t, "1/4/1/4", "200-6-20", 7400))
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(testRunConfig(t, "1/4/1/4", "400-6-20", 7400))
	if err != nil {
		t.Fatal(err)
	}
	if large.Throughput() <= small.Throughput() {
		t.Errorf("400 workers TP %.1f <= 200 workers %.1f", large.Throughput(), small.Throughput())
	}
	if large.CJDBC[0].CPUUtil <= small.CJDBC[0].CPUUtil {
		t.Errorf("back-end starvation missing: cjdbc util %.2f (400w) <= %.2f (200w)",
			large.CJDBC[0].CPUUtil, small.CJDBC[0].CPUUtil)
	}
}

// TestPaperHeadlineOverAllocation pins the Fig. 5 claim: 200 DB connections
// per Tomcat lose badly to 10 at high workload, with C-JDBC GC as the
// mechanism.
func TestPaperHeadlineOverAllocation(t *testing.T) {
	small, err := Run(testRunConfig(t, "1/4/1/4", "400-200-10", 7400))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(testRunConfig(t, "1/4/1/4", "400-200-200", 7400))
	if err != nil {
		t.Fatal(err)
	}
	if big.Throughput() >= small.Throughput()*0.8 {
		t.Errorf("conns=200 TP %.1f not clearly below conns=10 TP %.1f",
			big.Throughput(), small.Throughput())
	}
	if big.CJDBC[0].GC.GCFraction < small.CJDBC[0].GC.GCFraction*5 {
		t.Errorf("GC fractions %.3f (200) vs %.3f (10): expected explosion",
			big.CJDBC[0].GC.GCFraction, small.CJDBC[0].GC.GCFraction)
	}
}
