package experiment

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/queuing"
	"github.com/softres/ntier/internal/resource"
	"github.com/softres/ntier/internal/testbed"
)

func baseConfig(users int) RunConfig {
	return RunConfig{
		Testbed: testbed.Options{
			Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
			Soft:     testbed.SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 6},
			Seed:     21,
		},
		Users:   users,
		RampUp:  15 * time.Second,
		Measure: 30 * time.Second,
	}
}

func TestRunProducesConsistentResult(t *testing.T) {
	res, err := Run(baseConfig(1500))
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput() <= 0 {
		t.Fatal("no throughput measured")
	}
	// Closed-loop sanity: X ≈ N/(Z+R).
	expect := float64(1500) / (7*time.Second + res.MeanRT()).Seconds()
	if math.Abs(res.Throughput()-expect)/expect > 0.15 {
		t.Errorf("throughput %.1f inconsistent with interactive law %.1f", res.Throughput(), expect)
	}
	// Goodput never exceeds throughput and is monotone in the threshold.
	g05 := res.Goodput(500 * time.Millisecond)
	g1 := res.Goodput(time.Second)
	g2 := res.Goodput(2 * time.Second)
	if g05 > g1 || g1 > g2 || g2 > res.Throughput()+1e-9 {
		t.Errorf("goodput ordering violated: %.1f %.1f %.1f tp %.1f", g05, g1, g2, res.Throughput())
	}
	if len(res.Apache) != 1 || len(res.Tomcat) != 2 || len(res.CJDBC) != 1 || len(res.MySQL) != 2 {
		t.Fatalf("server stats counts %d/%d/%d/%d", len(res.Apache), len(res.Tomcat), len(res.CJDBC), len(res.MySQL))
	}
	for _, s := range res.Servers() {
		if s.CPUUtil < 0 || s.CPUUtil > 1 {
			t.Errorf("%s CPU util %v out of range", s.Name, s.CPUUtil)
		}
	}
}

func TestRunOperationalLaws(t *testing.T) {
	res, err := Run(baseConfig(1500))
	if err != nil {
		t.Fatal(err)
	}
	// Little's law per server (holds by construction of the log; this
	// guards the accounting).
	for _, s := range res.Servers() {
		if s.TP == 0 {
			continue
		}
		if err := queuing.CheckLittle(s.Jobs, s.TP, s.RTT, 0.01); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	// Forced flow: Apache tier throughput ≈ SLA throughput; C-JDBC tier
	// throughput ≈ X * Req_ratio with Req_ratio in the calibrated range.
	apacheTP := 0.0
	for _, s := range res.Apache {
		apacheTP += s.TP
	}
	if math.Abs(apacheTP-res.Throughput())/res.Throughput() > 0.1 {
		t.Errorf("apache TP %.1f vs system TP %.1f", apacheTP, res.Throughput())
	}
	cjdbcTP := 0.0
	for _, s := range res.CJDBC {
		cjdbcTP += s.TP
	}
	reqRatio := queuing.VisitRatio(cjdbcTP, apacheTP)
	if reqRatio < 1.8 || reqRatio > 3.2 {
		t.Errorf("Req_ratio %.2f outside calibrated range", reqRatio)
	}
}

func TestRunDeterministicReplay(t *testing.T) {
	a, err := Run(baseConfig(800))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig(800))
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput() != b.Throughput() || a.MeanRT() != b.MeanRT() {
		t.Errorf("replay diverged: %.3f/%v vs %.3f/%v",
			a.Throughput(), a.MeanRT(), b.Throughput(), b.MeanRT())
	}
}

// timelineRun is the Fig. 7/8 trial that TestRunTimeline checks and the
// apache-timeline pin images.
var timelineRun = sharedTrial(func(*testing.T) (*Result, error) {
	cfg := baseConfig(800)
	cfg.Timeline = true
	return Run(cfg)
})

func TestRunTimeline(t *testing.T) {
	tl := timelineRun(t).Timeline
	if tl == nil {
		t.Fatal("timeline missing")
	}
	if len(tl.Processed) < 25 {
		t.Errorf("processed timeline has %d windows, want ~30", len(tl.Processed))
	}
	// One sample per second boundary of the 30s window, the horizon's
	// included: its events fire.
	if len(tl.ActiveRaw) != 31 || len(tl.ConnectRaw) != 31 {
		t.Errorf("parallelism samples %d/%d, want 31", len(tl.ActiveRaw), len(tl.ConnectRaw))
	}
	sum := 0.0
	for _, v := range tl.Processed {
		sum += v
	}
	if sum <= 0 {
		t.Error("no requests recorded in timeline")
	}
}

func TestServerStatsPoolLookup(t *testing.T) {
	res, err := Run(baseConfig(600))
	if err != nil {
		t.Fatal(err)
	}
	tc := res.Tomcat[0]
	if tc.Pool(testbed.AppThreads) == nil || tc.Pool(testbed.AppConns) == nil {
		t.Error("tomcat pools not found by axis")
	}
	if tc.Pool(testbed.WebThreads) != nil {
		t.Error("a tomcat answered for the apache worker pool")
	}
	if got := tc.Pool(testbed.AppThreads).Capacity; got != 15 {
		t.Errorf("thread pool capacity %d, want 15", got)
	}
}

func TestPoolSuffixMatchesWholeSegmentsOnly(t *testing.T) {
	s := &ServerStats{Pools: []resource.PoolStats{
		{Name: "tomcat1/db-conns", Capacity: 5},
		{Name: "tomcat1/conns", Capacity: 7},
	}}
	// The connection axis must match the whole segment "conns", not the
	// earlier pool that merely ends in "-conns".
	if got := s.Pool(testbed.AppConns); got == nil || got.Capacity != 7 {
		t.Errorf("Pool(AppConns) = %v, want the tomcat1/conns pool", got)
	}
	if got := s.Pool(testbed.AppThreads); got != nil {
		t.Errorf("Pool(AppThreads) matched %v", got)
	}
	s.Pools = s.Pools[:1]
	if got := s.Pool(testbed.AppConns); got != nil {
		t.Errorf("Pool(AppConns) matched %v", got)
	}
}

func TestWorkloadSweep(t *testing.T) {
	cfg := baseConfig(0)
	cfg.RampUp = 10 * time.Second
	cfg.Measure = 15 * time.Second
	curve, err := WorkloadSweep(cfg, []int{300, 600, 900})
	if err != nil {
		t.Fatal(err)
	}
	var tps []float64
	for _, r := range curve.Results {
		tps = append(tps, r.Throughput())
	}
	if len(tps) != 3 {
		t.Fatalf("sweep produced %d results", len(tps))
	}
	// Below saturation, throughput grows with workload.
	if !(tps[0] < tps[1] && tps[1] < tps[2]) {
		t.Errorf("throughputs not increasing: %v", tps)
	}
	if curve.MaxThroughput() != tps[2] {
		t.Errorf("MaxThroughput %.1f, want %.1f", curve.MaxThroughput(), tps[2])
	}
	g := curve.Goodputs(2 * time.Second)
	if g[2] <= 0 {
		t.Error("no goodput at light load")
	}
	if curve.MaxGoodput(2*time.Second) < g[2] {
		t.Error("MaxGoodput below observed point")
	}
}

func TestAllocSweep(t *testing.T) {
	cfg := baseConfig(0)
	cfg.RampUp = 10 * time.Second
	cfg.Measure = 15 * time.Second
	points, err := AllocSweep(cfg, []int{600}, []int{2, 30}, testbed.AppThreads)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("alloc sweep produced %d points", len(points))
	}
	if points[0].Soft.AppThreads != 2 || points[1].Soft.AppThreads != 30 {
		t.Errorf("allocations %v / %v", points[0].Soft, points[1].Soft)
	}
	// 2 threads per server must throttle relative to 30 at this load.
	if points[0].Curve.MaxThroughput() >= points[1].Curve.MaxThroughput() {
		t.Errorf("tiny pool TP %.1f >= ample pool TP %.1f",
			points[0].Curve.MaxThroughput(), points[1].Curve.MaxThroughput())
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "demo", Headers: []string{"workload", "goodput"}}
	tbl.AddRow("6000", "123.4")
	out := tbl.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "workload") || !strings.Contains(out, "123.4") {
		t.Errorf("table rendering missing parts:\n%s", out)
	}
}

func TestCurveTable(t *testing.T) {
	cfg := baseConfig(0)
	cfg.RampUp = 10 * time.Second
	cfg.Measure = 10 * time.Second
	curve, err := WorkloadSweep(cfg, []int{300})
	if err != nil {
		t.Fatal(err)
	}
	tbl := CurveTable("fig", 2*time.Second, curve)
	out := tbl.String()
	if !strings.Contains(out, "300") || !strings.Contains(out, curve.Label) {
		t.Errorf("curve table:\n%s", out)
	}
}

func TestDescribe(t *testing.T) {
	res, err := Run(baseConfig(600))
	if err != nil {
		t.Fatal(err)
	}
	d := res.Describe()
	if !strings.Contains(d, "1/2/1/2") || !strings.Contains(d, "N=600") {
		t.Errorf("describe: %s", d)
	}
}
