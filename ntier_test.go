package ntier

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/paper"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/sla"
)

// paperConfig returns a trial of hw and soft at the horizon.
func paperConfig(tb testing.TB, h paper.Horizon, hw, soft string) RunConfig {
	tb.Helper()
	cfg := h.Config()
	var err error
	if cfg.Testbed.Hardware, err = ParseHardware(hw); err != nil {
		tb.Fatal(err)
	}
	if cfg.Testbed.Soft, err = ParseSoftAlloc(soft); err != nil {
		tb.Fatal(err)
	}
	return cfg
}

func testRunConfig(t *testing.T, hw, soft string, users int) RunConfig {
	t.Helper()
	cfg := paperConfig(t, paper.Headline, hw, soft)
	cfg.Users = users
	return cfg
}

// readPaper runs the named reading of the paper's figure table alone at
// the horizon.
func readPaper(tb testing.TB, h paper.Horizon, name string) (*paper.Reading, *paper.Data) {
	tb.Helper()
	r, d, err := paper.Read(h.Config(), name)
	if err != nil {
		tb.Fatal(err)
	}
	return r, d
}

// headline returns the named reading's trials at the headline-test
// horizon, in reading order.
func headline(t *testing.T, name string) []*Result {
	t.Helper()
	r, d := readPaper(t, paper.Headline, name)
	return r.Trials(d)
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
	// GC and FIN-wait ablations must change behaviour at stress points:
	// a small Apache pool under load, FIN wait on and off.
	rs := headline(t, "AblationNoFinWait")
	on, offRes := rs[0], rs[1]
	if offRes.Throughput() < on.Throughput()*2 {
		t.Errorf("FIN ablation should unthrottle the %d-worker pool: %.1f vs %.1f",
			on.Config.Testbed.Soft.WebThreads, on.Throughput(), offRes.Throughput())
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
// the repository level: near saturation, the under-allocated Tomcat pools
// lose goodput versus the practitioner allocation, and the gap widens as
// the SLA tightens.
func TestPaperHeadlineUnderAllocation(t *testing.T) {
	rs := headline(t, "PaperHeadlineUnderAllocation")
	low, good := rs[0], rs[1]
	prevRatio := 0.0
	for i := len(sla.StandardThresholds) - 1; i >= 0; i-- { // 2s, 1s, 0.5s
		th := sla.StandardThresholds[i]
		g, l := good.Goodput(th), low.Goodput(th)
		if g < l {
			t.Errorf("at %v: %v goodput %.1f < %v %.1f", th, good.Config.Testbed.Soft, g, low.Config.Testbed.Soft, l)
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
	rs := headline(t, "PaperHeadlineBuffering")
	small, large := rs[0], rs[1]
	if large.Throughput() <= small.Throughput() {
		t.Errorf("%v TP %.1f <= %v %.1f", large.Config.Testbed.Soft, large.Throughput(),
			small.Config.Testbed.Soft, small.Throughput())
	}
	if large.CJDBC[0].CPUUtil <= small.CJDBC[0].CPUUtil {
		t.Errorf("back-end starvation missing: cjdbc util %.2f (%v) <= %.2f (%v)",
			large.CJDBC[0].CPUUtil, large.Config.Testbed.Soft, small.CJDBC[0].CPUUtil, small.Config.Testbed.Soft)
	}
}

// TestPaperHeadlineOverAllocation pins the Fig. 5 claim: an over-allocated
// DB connection pool per Tomcat loses badly to a small one at high
// workload, with C-JDBC GC as the mechanism.
func TestPaperHeadlineOverAllocation(t *testing.T) {
	rs := headline(t, "PaperHeadlineOverAllocation")
	small, big := rs[0], rs[1]
	if big.Throughput() >= small.Throughput()*0.8 {
		t.Errorf("%v TP %.1f not clearly below %v TP %.1f",
			big.Config.Testbed.Soft, big.Throughput(), small.Config.Testbed.Soft, small.Throughput())
	}
	if big.CJDBC[0].GC.GCFraction < small.CJDBC[0].GC.GCFraction*5 {
		t.Errorf("GC fractions %.3f (%v) vs %.3f (%v): expected explosion",
			big.CJDBC[0].GC.GCFraction, big.Config.Testbed.Soft, small.CJDBC[0].GC.GCFraction, small.Config.Testbed.Soft)
	}
}
