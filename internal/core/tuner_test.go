package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/testbed"
)

// tunerConfig returns a fast test configuration for the given hardware.
func tunerConfig(hw testbed.Hardware, soft testbed.SoftAlloc) Config {
	return Config{
		Base: experiment.RunConfig{
			Testbed: testbed.Options{Hardware: hw, Soft: soft, Seed: 33},
			RampUp:  15 * time.Second,
			Measure: 25 * time.Second,
		},
		Step:      1000,
		SmallStep: 500,
	}
}

// tuneRun is one 1/2/1/2 Tune: its report, progress log and error.
type tuneRun struct {
	rep *Report
	log string
	err error
}

// tune1212 runs the 1/2/1/2 Tune at the given parallelism.
func tune1212(parallelism int) tuneRun {
	cfg := tunerConfig(
		testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
		testbed.SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 20},
	)
	cfg.Base.Parallelism = parallelism
	var log strings.Builder
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(&log, format+"\n", args...)
	}
	rep, err := Tune(cfg)
	return tuneRun{rep, log.String(), err}
}

// serialTune1212 is the serial 1/2/1/2 Tune, run once per test binary for
// TestTune1212FindsTomcatCPU and TestTuneParallelMatchesSerial.
var serialTune1212 = sync.OnceValue(func() tuneRun { return tune1212(1) })

func TestTune1212FindsTomcatCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("tuner runs a full workload ramp")
	}
	serial := serialTune1212()
	if serial.err != nil {
		t.Fatal(serial.err)
	}
	rep := serial.rep
	if rep.Critical.Tier != "tomcat" {
		t.Errorf("critical tier %q, want tomcat (paper Table I)", rep.Critical.Tier)
	}
	if rep.Critical.Utilization < 0.95 {
		t.Errorf("critical utilization %.2f, want >= 0.95", rep.Critical.Utilization)
	}
	if rep.SaturationWL < 4000 || rep.SaturationWL > 7500 {
		t.Errorf("saturation workload %d, want near the 1/2/1/2 knee (~5000-6500)", rep.SaturationWL)
	}
	// Paper Table I: optimal Tomcat thread pool ~13/server; accept the
	// band the validation sweep (Fig. 10a) peaks in.
	if rep.Recommended.AppThreads < 8 || rep.Recommended.AppThreads > 30 {
		t.Errorf("recommended Tomcat threads %d, want ~10-25", rep.Recommended.AppThreads)
	}
	if rep.ReqRatio < 1.8 || rep.ReqRatio > 3.2 {
		t.Errorf("Req_ratio %.2f out of range", rep.ReqRatio)
	}
	if rep.Recommended.WebThreads <= rep.Recommended.AppThreads {
		t.Errorf("web tier buffer %d should exceed app threads %d",
			rep.Recommended.WebThreads, rep.Recommended.AppThreads)
	}
	out := rep.String()
	for _, want := range []string{"tomcat", "Recommended allocation", "Req_ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestTune1414FindsCJDBCCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("tuner runs a full workload ramp")
	}
	cfg := tunerConfig(
		testbed.Hardware{Web: 1, App: 4, Mid: 1, DB: 4},
		testbed.SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 20},
	)
	rep, err := Tune(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Critical.Tier != "cjdbc" {
		t.Errorf("critical tier %q, want cjdbc (paper Table I)", rep.Critical.Tier)
	}
	if rep.SaturationWL < 5000 || rep.SaturationWL > 9000 {
		t.Errorf("saturation workload %d, want near the 1/4/1/4 knee (~6000-7500)", rep.SaturationWL)
	}
	// Paper Table I: conn pool ~8/server (total 32). Accept a band.
	if rep.Recommended.AppConns < 3 || rep.Recommended.AppConns > 14 {
		t.Errorf("recommended conn pool %d/server, want ~4-12", rep.Recommended.AppConns)
	}
}

func TestTuneDoublesOnSoftBottleneck(t *testing.T) {
	if testing.Short() {
		t.Skip("tuner runs a full workload ramp")
	}
	// Start with a severely under-allocated thread pool: the algorithm
	// must detect the software bottleneck and double its way out.
	cfg := tunerConfig(
		testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
		testbed.SoftAlloc{WebThreads: 400, AppThreads: 2, AppConns: 4},
	)
	rep, err := Tune(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Doublings == 0 {
		t.Error("under-allocated start should trigger at least one doubling")
	}
	if rep.ReservedSoft.AppThreads <= cfg.Base.Testbed.Soft.AppThreads {
		t.Errorf("reserved allocation %s not scaled from %s", rep.ReservedSoft, cfg.Base.Testbed.Soft)
	}
	if rep.Critical.Tier != "tomcat" {
		t.Errorf("critical tier %q, want tomcat", rep.Critical.Tier)
	}
}

func TestTuneParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("tuner runs a full workload ramp")
	}
	// The speculative batched ramps must report exactly what the serial
	// ramp reports — same trials observed, same order, same log.
	serial, parallel := serialTune1212(), tune1212(4)
	for _, r := range []tuneRun{serial, parallel} {
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
	if serialRep, parallelRep := serial.rep.String(), parallel.rep.String(); serialRep != parallelRep {
		t.Errorf("parallel report differs:\n--- serial ---\n%s\n--- parallel ---\n%s", serialRep, parallelRep)
	}
	if serial.log != parallel.log {
		t.Errorf("parallel progress log differs:\n--- serial ---\n%s\n--- parallel ---\n%s", serial.log, parallel.log)
	}
}

func TestRampWorkloads(t *testing.T) {
	cases := []struct {
		start, step, max, n int
		want                []int
	}{
		{1000, 1000, 20000, 4, []int{1000, 2000, 3000, 4000}},
		{19500, 1000, 20000, 4, []int{19500}},
		// The first trial always runs, even past max — the serial ramps
		// did, and the batched ramps must observe the same trials.
		{1000, 1000, 500, 4, []int{1000}},
		{400, 400, 1200, 16, []int{400, 800, 1200}},
	}
	for _, c := range cases {
		got := rampWorkloads(c.start, c.step, c.max, c.n)
		if len(got) != len(c.want) {
			t.Errorf("rampWorkloads(%d,%d,%d,%d) = %v, want %v", c.start, c.step, c.max, c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("rampWorkloads(%d,%d,%d,%d) = %v, want %v", c.start, c.step, c.max, c.n, got, c.want)
				break
			}
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.applyDefaults()
	if c.Step != 1000 || c.SmallStep != 400 {
		t.Errorf("defaults: %+v", c)
	}
}

func TestCriticalStatsLookup(t *testing.T) {
	res := &experiment.Result{
		Apache: []experiment.ServerStats{{Name: "a"}},
		Tomcat: []experiment.ServerStats{{Name: "t"}},
		CJDBC:  []experiment.ServerStats{{Name: "c"}},
		MySQL:  []experiment.ServerStats{{Name: "m"}},
	}
	for tier, want := range map[string]string{"apache": "a", "tomcat": "t", "cjdbc": "c", "mysql": "m"} {
		ss := criticalStats(res, tier)
		if len(ss) != 1 || ss[0].Name != want {
			t.Errorf("criticalStats(%s) = %v", tier, ss)
		}
	}
	if criticalStats(res, "bogus") != nil {
		t.Error("bogus tier returned stats")
	}
}

// writeHeavyConfig is the cheapest full tuning run: the write-heavy mix
// saturates the database disk at a few thousand users.
func writeHeavyConfig() Config {
	cfg := tunerConfig(
		testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
		testbed.SoftAlloc{WebThreads: 400, AppThreads: 30, AppConns: 20},
	)
	cfg.Base.Mix = rubbos.WriteHeavyMix()
	cfg.Step = 800
	cfg.SmallStep = 400
	return cfg
}

// A resumed tuning run replays every ramp trial from its journal and
// reports exactly what the original run reported.
func TestTuneResumeRunsNoTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("tuner runs a full workload ramp")
	}
	dir := filepath.Join(t.TempDir(), "state")
	tune := func(resume bool) (rep *Report, restored, ran int) {
		st, err := experiment.OpenState(dir, "tune-resume-test", resume)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var mu sync.Mutex
		cfg := writeHeavyConfig()
		cfg.Base.State = st
		cfg.Base.OnTrial = func(key string, wasRestored bool, err error) {
			mu.Lock()
			defer mu.Unlock()
			if wasRestored {
				restored++
			} else {
				ran++
			}
		}
		if rep, err = Tune(cfg); err != nil {
			t.Fatal(err)
		}
		return rep, restored, ran
	}
	// The coarse and fine ramps share workloads, so even the first run
	// restores the repeats it journaled itself.
	first, repeats, ran := tune(false)
	second, restored, reran := tune(true)
	if reran != 0 || restored != repeats+ran {
		t.Errorf("resume ran %d trials and restored %d, want 0 and %d", reran, restored, repeats+ran)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed report differs:\n%s\nvs\n%s", first, second)
	}
}

func TestTuneWriteHeavyFindsDiskCritical(t *testing.T) {
	if testing.Short() {
		t.Skip("tuner runs a full workload ramp")
	}
	// Under the write-heavy mix the database disk saturates while every
	// CPU idles — the algorithm must identify a non-CPU critical resource
	// on the database tier.
	cfg := writeHeavyConfig()
	rep, err := Tune(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Critical.Tier != "mysql" || rep.Critical.Resource != "disk" {
		t.Fatalf("critical = %s %s, want mysql disk", rep.Critical.Tier, rep.Critical.Resource)
	}
	if rep.SaturationWL < 1200 || rep.SaturationWL > 4000 {
		t.Errorf("saturation workload %d, want near the disk knee (~2000-3000)", rep.SaturationWL)
	}
	if rep.Recommended.AppThreads < 1 || rep.Recommended.WebThreads < rep.Recommended.AppThreads {
		t.Errorf("degenerate recommendation %s", rep.Recommended)
	}
}

func TestDiagnoseRealRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a saturated trial")
	}
	// A saturated 1/2/1/2 run must diagnose the Tomcat tier as a single
	// (or concurrent, both Tomcats saturate together) bottleneck.
	rc := experiment.RunConfig{
		Testbed: testbed.Options{
			Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
			Soft:     testbed.SoftAlloc{WebThreads: 400, AppThreads: 20, AppConns: 20},
			Seed:     13,
		},
		Users:   6400,
		RampUp:  15 * time.Second,
		Measure: 30 * time.Second,
	}
	d, err := Diagnose(rc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind == obs.PatternNone {
		t.Fatalf("saturated run diagnosed as none:\n%s", d)
	}
	if len(d.Servers) == 0 || !strings.HasPrefix(d.Servers[0].Name, "tomcat") {
		t.Errorf("top saturated server %v, want a tomcat:\n%s", d.Servers, d)
	}

	// A light-load run must diagnose none.
	rc.Users = 1000
	d, err = Diagnose(rc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != obs.PatternNone {
		t.Errorf("light load diagnosed as %v:\n%s", d.Kind, d)
	}
}

// A Measure longer than the obs recorder's default 512-sample bound must
// still be diagnosed over every one-second window, not a decimated grid.
func TestDiagnoseLongMeasureKeepsEveryWindow(t *testing.T) {
	d, err := Diagnose(experiment.RunConfig{
		Testbed: testbed.Options{
			Hardware: testbed.Hardware{Web: 1, App: 1, Mid: 1, DB: 1},
			Soft:     testbed.SoftAlloc{WebThreads: 50, AppThreads: 6, AppConns: 6},
			Seed:     3,
		},
		Users:   20,
		RampUp:  2 * time.Second,
		Measure: 600 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "bottleneck pattern: none (600 windows, some-server-saturated 0%)\n"
	if d.String() != want {
		t.Errorf("diagnosis %q, want %q", d.String(), want)
	}
}
