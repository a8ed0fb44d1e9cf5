package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/fleet"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

var updatePins = flag.Bool("update-pins", false, "log fresh digest pins instead of checking them")

// TestDigestPins pins, at full precision, the campaign outputs the
// bottleneck analyzer decides — a TOP_JOB elastic day's decision log (every
// grow and shrink follows an obs verdict) and a 3-tenant PACKED fleet's
// per-tenant attribution (Top, Verdict and the limited flags) — the
// windowed trials: each named fault scenario, a fault scenario under the
// elastic controller, a fault scenario that sheds, a flash crowd, and an
// elastic day's obs snapshot —
// and the fleet trials: a GREEDY fleet with an open tenant, a PACKED
// interference matrix, and a fleet's per-tenant obs snapshots — and the
// bytes of the scenario, flash-crowd and elastic timeline CSVs and the
// Fig. 7/8 Apache series, read from trials the other pins and
// TestRunTimeline already run.
// Floats are hashed as their bits, so a refactor that keeps the decisions
// and timelines keeps every pin.
//
// After an intentional behaviour change, regenerate with
//
//	go test ./internal/experiment -run DigestPins -update-pins -v
//
// and name every changed pin in CHANGES.md.
func TestDigestPins(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, h hash.Hash) string
		want string
	}{
		{"elastic-topjob-day", digestElasticDay, "084ad0a61ea3ade0d9f19120"},
		{"fleet-packed-3", digestPackedFleet, "ceb980a8e0c5aa3848392c5a"},
		{"scenario-brownout-cjdbc", digestNamedScenario("brownout-cjdbc"), "b62c15ca4cc99f4b052f4c66"},
		{"scenario-crash-tomcat", digestNamedScenario("crash-tomcat"), "d059342ca80cd696d714d56a"},
		{"scenario-leak-conns", digestNamedScenario("leak-conns"), "0b3daa3f1d00344c6977dce3"},
		{"scenario-netspike", digestNamedScenario("netspike"), "45b474d505a1ddff065bd945"},
		{"scenario-retry-storm", digestNamedScenario("retry-storm"), "48c6f08af944222d80b89de5"},
		{"scenario-elastic-brownout", digestElasticScenario, "1e6ae238ec6f0429b795bc21"},
		{"scenario-overload-shed", func(t *testing.T, h hash.Hash) string { return hashScenario(t, h, pinShedScenario(t)) }, "3743c5a982dffceeaa5585e2"},
		{"flash-crowd", digestFlashCrowd, "19bb46727d0273c07d7c4a96"},
		{"elastic-obs-snapshot", digestElasticObs, "73c7365310b7a293c94781a7"},
		{"fleet-open-tenant", digestOpenTenantFleet, "6c6fd30ba437c839c564ac9a"},
		{"fleet-interference", digestFleetInterference, "f78b02a957bf4db650d579ea"},
		{"fleet-obs-snapshot", digestFleetObs, "bf9f8fd9f91cfc52645c8943"},
		{"scenario-timeline-csv", digestTimelineCSV(func(t *testing.T) func(io.Writer) error {
			return pinShedScenario(t).WriteTimelineCSV
		}), "4d4d5feef85e03d582c397de"},
		{"flash-timeline-csv", digestTimelineCSV(func(t *testing.T) func(io.Writer) error {
			return pinFlashCrowd(t).WriteTimelineCSV
		}), "94008799daeeecdb53b1debf"},
		{"elastic-timeline-csv", digestTimelineCSV(func(t *testing.T) func(io.Writer) error {
			return pinElasticDay(t).WriteTimelineCSV
		}), "c0067d088551d70b696739c1"},
		{"apache-timeline", digestApacheTimeline, "f1022533ed99f7512f8f503a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			summary := tc.run(t, h)
			got := fmt.Sprintf("%x", h.Sum(nil)[:12])
			if *updatePins {
				t.Logf("pin %s: %q (%s)", tc.name, got, summary)
				return
			}
			if got != tc.want {
				t.Errorf("digest %s, pinned %s (%s)", got, tc.want, summary)
			}
		})
	}
}

// sharedTrial runs a trial at most once per test binary for every pin and
// test that reads it. run must not stop the test: it may only mark itself
// a helper.
func sharedTrial[T any](run func(t *testing.T) (T, error)) func(t *testing.T) T {
	var (
		once sync.Once
		v    T
		err  error
	)
	return func(t *testing.T) T {
		t.Helper()
		once.Do(func() { v, err = run(t) })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// bits renders a float64 at full precision.
func bits(f float64) string { return fmt.Sprintf("%x", math.Float64bits(f)) }

// digestElasticDay hashes a TOP_JOB trial over elasticBase's compressed
// day, started under-allocated and driven harder so the controller both
// shrinks idle pools and grows the pool it blames for a soft bottleneck:
// the decision log and every decision field, the scores, and the
// timeline.
func digestElasticDay(t *testing.T, h hash.Hash) string {
	r := pinElasticDay(t)
	fmt.Fprintf(h, "log %q\n", r.DecisionLog)
	for _, d := range r.Decisions {
		fmt.Fprintf(h, "d %d %s %s %d %d %d %q\n", d.At, d.Policy, d.Axis, d.From, d.To, d.Units, d.Reason)
	}
	fmt.Fprintf(h, "s %s %s %s %s %d %d %d\n", bits(r.Throughput), bits(r.Goodput),
		bits(r.MeanUnits), bits(r.GoodputPerUnit), r.Errors, r.Shed, r.Late)
	for _, p := range r.Timeline {
		fmt.Fprintf(h, "p %s %d %s %d %d %d %d\n", bits(p.Second), p.Completed, bits(p.Goodput),
			p.Errors, p.Shed, p.Late, int(p.Gauge))
	}
	return fmt.Sprintf("%d decisions, goodput %.1f", len(r.Decisions), r.Goodput)
}

// pinElasticDay is the elastic day that digestElasticDay hashes.
var pinElasticDay = sharedTrial(func(t *testing.T) (*ElasticResult, error) {
	cfg := elasticBase(t)
	cfg.Run.Testbed.Soft = testbed.SoftAlloc{WebThreads: 20, AppThreads: 2, AppConns: 1}
	cfg.Traces[0].Spec = trace.Diurnal(60, 240, 2*time.Minute)
	return RunElastic(cfg, adaptive.PolicyTopJob, cfg.Traces[0])
})

// digestPackedFleet hashes the noisy-neighbor consolidation (aggressor
// ramped) under PACKED, with the far victim starved of pools so the three
// tenants cover a soft verdict and two hardware ones: each tenant's
// attribution strings and flags, and its outcome at full precision.
func digestPackedFleet(t *testing.T, h hash.Hash) string {
	cfg := consolidationConfig(3000)
	cfg.Fleet.Tenants[0].Soft = testbed.SoftAlloc{WebThreads: 10, AppThreads: 1, AppConns: 1}
	cfg.Fleet.Tenants[0].Users = 800
	r, err := RunFleet(cfg, fleet.PlacementPacked, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	summary := ""
	for _, tr := range r.PerTenant {
		fmt.Fprintf(h, "t %s %d top=%q verdict=%q hw=%t soft=%t slo=%t\n",
			tr.Tenant, tr.Users, tr.Top, tr.Verdict, tr.HWLimited, tr.SoftLimited, tr.SLOMet)
		fmt.Fprintf(h, "o %s %s %s %s %d %d\n", bits(tr.Throughput), bits(tr.Goodput),
			bits(tr.P95), bits(tr.Attainment), tr.Errors, tr.Shed)
		summary += fmt.Sprintf("%s: %s; ", tr.Tenant, tr.Verdict)
	}
	fmt.Fprintf(h, "f %d %s %s\n", r.NodesUsed, bits(r.FleetGoodput), bits(r.GoodputPerNode))
	return summary
}

// pinScenarioBase is the small fault-trial base the scenario pins share:
// 1/2/1/2 under moderate closed load, measured long enough for the named
// scenarios' 30s..90s fault window and its recovery.
func pinScenarioBase() RunConfig {
	return RunConfig{
		Testbed: testbed.Options{
			Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
			Soft:     testbed.SoftAlloc{WebThreads: 200, AppThreads: 10, AppConns: 5},
			Seed:     3,
		},
		Users:   700,
		RampUp:  5 * time.Second,
		Measure: 100 * time.Second,
	}
}

// digestNamedScenario hashes one built-in fault scenario run through its
// Configure on pinScenarioBase.
func digestNamedScenario(name string) func(t *testing.T, h hash.Hash) string {
	return func(t *testing.T, h hash.Hash) string {
		sc, err := ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := RunScenario(sc.Configure(pinScenarioBase()))
		if err != nil {
			t.Fatal(err)
		}
		return hashScenario(t, h, sr)
	}
}

// digestElasticScenario hashes a brown-out under the TOP_JOB controller.
// The controller's 5s period puts its ticks on the fault's apply and
// revert instants, the tie whose push order the runner must keep.
func digestElasticScenario(t *testing.T, h hash.Hash) string {
	base := pinScenarioBase()
	base.Testbed.Soft = testbed.SoftAlloc{WebThreads: 200, AppThreads: 4, AppConns: 4}
	base.Users = 900
	base.Measure = 60 * time.Second
	sr, err := RunScenario(ScenarioConfig{
		Run:        base,
		Resilience: defaultScenarioResilience(),
		Elastic:    &adaptive.ElasticConfig{Policy: adaptive.PolicyTopJob, Interval: 5 * time.Second},
		Plan: fault.Plan{Events: []fault.Event{
			fault.Brownout("tomcat2", 20*time.Second, 40*time.Second, 0.4),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range sr.Decisions {
		fmt.Fprintf(h, "d %d %s %s %d %d %d %q\n", d.At, d.Policy, d.Axis, d.From, d.To, d.Units, d.Reason)
	}
	return fmt.Sprintf("%d decisions; %s", len(sr.Decisions), hashScenario(t, h, sr))
}

// pinShedScenario overloads a protected 1/1/1/1 through a Tomcat
// brown-out and a short database crash, so its windows hold shed
// rejections and error responses both: the one scenario pin whose errors
// plus shed differs from its errors.
var pinShedScenario = sharedTrial(func(*testing.T) (*ScenarioResult, error) {
	run := smallOverloadConfig()
	run.Users = 1200
	run.Measure = 30 * time.Second
	run.RampUp = 5 * time.Second
	return RunScenario(ScenarioConfig{
		Run:        run,
		Resilience: OverloadProtection(),
		Plan: fault.Plan{Events: []fault.Event{
			fault.Brownout("tomcat1", 10*time.Second, 20*time.Second, 0.3),
			fault.Crash("mysql1", 22*time.Second, 23*time.Second),
		}},
	})
})

// hashScenario hashes a fault trial's timeline, recovery statistics,
// resilience counters and injector records.
func hashScenario(t *testing.T, h hash.Hash, sr *ScenarioResult) string {
	for _, p := range sr.Timeline {
		fmt.Fprintf(h, "p %s %d %s %d %s\n", bits(p.Second), p.Completed, bits(p.Goodput), p.Errors+p.Shed, bits(p.Gauge))
	}
	fmt.Fprintf(h, "r %s %d %d %s %d\n", bits(sr.PreFaultGoodput), sr.RecoveredAt, sr.RecoveryTime,
		bits(sr.MeanCJDBCBusy), sr.Errors+sr.Shed)
	fmt.Fprintf(h, "s %s %s\n", bits(sr.SLA.Throughput()), bits(sr.SLA.Goodput(time.Second)))
	fmt.Fprintf(h, "res %+v\n", sr.TotalResilience())
	recs, err := json.Marshal(sr.Records)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "inj %s\n", recs)
	return fmt.Sprintf("pre-fault %.1f, recovery %v, errors %d, busy %.2f",
		sr.PreFaultGoodput, sr.RecoveryTime, sr.Errors+sr.Shed, sr.MeanCJDBCBusy)
}

// digestFlashCrowd hashes a protected 1/1/1/1 absorbing a 4x spike under a
// 1s deadline: the timeline with its queue gauge, recovery, drain, and the
// shed and late counts.
func digestFlashCrowd(t *testing.T, h hash.Hash) string {
	fr := pinFlashCrowd(t)
	for _, p := range fr.Timeline {
		fmt.Fprintf(h, "p %s %d %s %d %d %d %s\n", bits(p.Second), p.Completed, bits(p.Goodput),
			p.Errors, p.Shed, p.Late, bits(p.Gauge))
	}
	fmt.Fprintf(h, "r %s %d %d %d %d\n", bits(fr.PreSpikeGoodput), fr.RecoveredAt, fr.RecoveryTime,
		fr.DrainedAt, fr.DrainTime)
	fmt.Fprintf(h, "s %s %s %d %d %d\n", bits(fr.SLA.Throughput()), bits(fr.SLA.Goodput(time.Second)),
		fr.Errors, fr.Shed, fr.Late)
	return fmt.Sprintf("pre-spike %.1f, recovery %v, drain %v, shed %d, late %d",
		fr.PreSpikeGoodput, fr.RecoveryTime, fr.DrainTime, fr.Shed, fr.Late)
}

// pinFlashCrowd is the flash crowd that digestFlashCrowd hashes.
var pinFlashCrowd = sharedTrial(func(*testing.T) (*FlashCrowdResult, error) {
	run := smallOverloadConfig()
	run.Deadline = 250 * time.Millisecond
	return RunFlashCrowd(FlashCrowdConfig{
		Run:        run,
		BaseRate:   80,
		SpikeMult:  6,
		SpikeStart: 5 * time.Second,
		SpikeDur:   5 * time.Second,
	})
})

// digestTimelineCSV hashes the bytes a timeline CSV writer writes.
func digestTimelineCSV(writer func(t *testing.T) func(io.Writer) error) func(t *testing.T, h hash.Hash) string {
	return func(t *testing.T, h hash.Hash) string {
		var b bytes.Buffer
		if err := writer(t)(&b); err != nil {
			t.Fatal(err)
		}
		h.Write(b.Bytes())
		header, _, _ := strings.Cut(b.String(), "\n")
		return fmt.Sprintf("%d lines, %s", bytes.Count(b.Bytes(), []byte("\n")), header)
	}
}

// digestApacheTimeline hashes the Fig. 7/8 series of TestRunTimeline's
// trial: every series' length and values, and the sampling period.
func digestApacheTimeline(t *testing.T, h hash.Hash) string {
	tl := timelineRun(t).Timeline
	series := []struct {
		name string
		v    []float64
	}{
		{"processed", tl.Processed}, {"pt_total", tl.PTTotalMS}, {"pt_connect", tl.PTConnectMS},
		{"active", tl.ActiveRaw}, {"connecting", tl.ConnectRaw},
	}
	summary := ""
	for _, s := range series {
		fmt.Fprintf(h, "%s %d", s.name, len(s.v))
		for _, v := range s.v {
			fmt.Fprintf(h, " %s", bits(v))
		}
		fmt.Fprintln(h)
		summary += fmt.Sprintf("%s %d; ", s.name, len(s.v))
	}
	fmt.Fprintf(h, "every %s\n", bits(tl.SampleEverySec))
	return summary
}

// digestElasticObs hashes the obs snapshot a TOP_JOB elastic day writes:
// its file name, labels and bottleneck summary.
func digestElasticObs(t *testing.T, h hash.Hash) string {
	snap, name := elasticObsSnapshot(t)
	sum, err := json.Marshal(snap.Summary)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "f %s %s %s %d %d %s %s\n%s\n", name, snap.Hardware, snap.Soft, snap.Workload,
		snap.Seed, bits(snap.Start), bits(snap.Interval), sum)
	return name
}

// smallFleet is a light two-tenant 1/1/1/1 fleet on a six-node pool, short
// enough for the fleet pins.
func smallFleet() FleetSweepConfig {
	hw := testbed.Hardware{Web: 1, App: 1, Mid: 1, DB: 1}
	return FleetSweepConfig{
		Run: RunConfig{RampUp: 5 * time.Second, Measure: 15 * time.Second},
		Fleet: fleet.Options{
			Nodes: 6, SlotsPerNode: 2, Seed: 9,
			Tenants: []fleet.TenantSpec{
				{Name: "a", Hardware: hw, Soft: testbed.SoftAlloc{WebThreads: 40, AppThreads: 4, AppConns: 3}, Users: 700},
				{Name: "b", Hardware: hw, Soft: testbed.SoftAlloc{WebThreads: 60, AppThreads: 6, AppConns: 2},
					Users: 900, ThinkMean: 3 * time.Second, SLO: 500 * time.Millisecond},
			},
		},
	}
}

// hashFleetTenant hashes every field of one tenant's fleet outcome.
func hashFleetTenant(h hash.Hash, tr FleetTenantResult) {
	fmt.Fprintf(h, "t %s %d %s %s %s %s %t %d %d %q %q %t %t\n", tr.Tenant, tr.Users,
		bits(tr.Throughput), bits(tr.Goodput), bits(tr.P95), bits(tr.Attainment), tr.SLOMet,
		tr.Errors, tr.Shed, tr.Verdict, tr.Top, tr.HWLimited, tr.SoftLimited)
}

// digestOpenTenantFleet hashes a GREEDY fleet of two closed tenants and one
// Poisson-driven tenant: every per-tenant field and the fleet totals.
func digestOpenTenantFleet(t *testing.T, h hash.Hash) string {
	cfg := smallFleet()
	cfg.Fleet.Tenants = append(cfg.Fleet.Tenants, fleet.TenantSpec{Name: "o",
		Hardware: testbed.Hardware{Web: 1, App: 1, Mid: 1, DB: 1},
		Soft:     testbed.SoftAlloc{WebThreads: 50, AppThreads: 5, AppConns: 3},
		Arrivals: trace.Poisson(120)})
	r, err := RunFleet(cfg, fleet.PlacementGreedy, 3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range r.PerTenant {
		hashFleetTenant(h, tr)
	}
	fmt.Fprintf(h, "f %d %s %s %v\n", r.NodesUsed, bits(r.FleetGoodput), bits(r.GoodputPerNode), r.Assignments)
	return r.Describe()
}

// digestFleetInterference hashes a PACKED interference matrix over two
// closed tenants: the baseline goodputs and every loss.
func digestFleetInterference(t *testing.T, h hash.Hash) string {
	cfg := smallFleet()
	cfg.Fleet.Nodes = 4
	m, err := FleetInterference(cfg, fleet.PlacementPacked, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range m.Baseline {
		fmt.Fprintf(h, "b %s %s\n", m.Tenants[i], bits(b))
	}
	for _, row := range m.Loss {
		for _, l := range row {
			fmt.Fprintf(h, "%s ", bits(l))
		}
		fmt.Fprintln(h)
	}
	return strings.TrimSpace(m.Format())
}

// digestFleetObs hashes the obs snapshots of a SPREAD fleet trial, one per
// tenant in seed order: labels other than Soft, the summary, and every
// series value. Soft and the file name are left out: they name the cell.
func digestFleetObs(t *testing.T, h hash.Hash) string {
	cfg := smallFleet()
	cfg.Run.ObsDir = t.TempDir()
	if _, err := RunFleet(cfg, fleet.PlacementSpread, 2, 1); err != nil {
		t.Fatal(err)
	}
	snaps, err := obs.ReadDir(cfg.Run.ObsDir)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Seed < snaps[j].Seed })
	for _, snap := range snaps {
		sum, err := json.Marshal(snap.Summary)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "f %s %d %d %s %s\n%s\n", snap.Hardware, snap.Workload, snap.Seed,
			bits(snap.Start), bits(snap.Interval), sum)
		for _, s := range snap.Series {
			fmt.Fprintf(h, "s %s %s", s.Name, s.Kind)
			for _, v := range s.Values {
				fmt.Fprintf(h, " %s", bits(v))
			}
			fmt.Fprintln(h)
		}
	}
	return fmt.Sprintf("%d snapshots", len(snaps))
}
