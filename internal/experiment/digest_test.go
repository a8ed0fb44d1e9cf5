package experiment

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"testing"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/fleet"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

var updatePins = flag.Bool("update-pins", false, "log fresh digest pins instead of checking them")

// TestDigestPins pins, at full precision, the campaign outputs the
// bottleneck analyzer decides — a TOP_JOB elastic day's decision log (every
// grow and shrink follows an obs verdict) and a 3-tenant PACKED fleet's
// per-tenant attribution (Top, Verdict and the limited flags) — and the
// windowed trials: each named fault scenario, a fault scenario under the
// elastic controller, a flash crowd, and an elastic day's obs snapshot.
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
		{"elastic-topjob-day", digestElasticDay, "028293a54a1335f55e72afca"},
		{"fleet-packed-3", digestPackedFleet, "ceb980a8e0c5aa3848392c5a"},
		{"scenario-brownout-cjdbc", digestNamedScenario("brownout-cjdbc"), "b62c15ca4cc99f4b052f4c66"},
		{"scenario-crash-tomcat", digestNamedScenario("crash-tomcat"), "d059342ca80cd696d714d56a"},
		{"scenario-leak-conns", digestNamedScenario("leak-conns"), "0b3daa3f1d00344c6977dce3"},
		{"scenario-netspike", digestNamedScenario("netspike"), "45b474d505a1ddff065bd945"},
		{"scenario-retry-storm", digestNamedScenario("retry-storm"), "48c6f08af944222d80b89de5"},
		{"scenario-elastic-brownout", digestElasticScenario, "56e339874373d007315470e1"},
		{"flash-crowd", digestFlashCrowd, "19bb46727d0273c07d7c4a96"},
		{"elastic-obs-snapshot", digestElasticObs, "6295978c74c182716eecf168"},
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

// bits renders a float64 at full precision.
func bits(f float64) string { return fmt.Sprintf("%x", math.Float64bits(f)) }

// digestElasticDay hashes a TOP_JOB trial over elasticBase's compressed
// day, started under-allocated and driven harder so the controller both
// shrinks idle pools and grows the pool it blames for a soft bottleneck:
// the decision log and every decision field, the scores, and the
// timeline.
func digestElasticDay(t *testing.T, h hash.Hash) string {
	cfg := elasticBase(t)
	cfg.Run.Testbed.Soft = testbed.SoftAlloc{WebThreads: 20, AppThreads: 2, AppConns: 1}
	cfg.Traces[0].Spec = trace.Diurnal(60, 240, 2*time.Minute)
	r, err := RunElastic(cfg, adaptive.PolicyTopJob, cfg.Traces[0])
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "log %q\n", r.DecisionLog)
	for _, d := range r.Decisions {
		fmt.Fprintf(h, "d %d %s %s %d %d %d %q\n", d.At, d.Policy, d.Axis, d.From, d.To, d.Units, d.Reason)
	}
	fmt.Fprintf(h, "s %s %s %s %s %d %d %d\n", bits(r.Throughput), bits(r.Goodput),
		bits(r.MeanUnits), bits(r.GoodputPerUnit), r.Errors, r.Shed, r.Late)
	for _, p := range r.Timeline {
		fmt.Fprintf(h, "p %s %d %s %d %d %d %d\n", bits(p.Second), p.Completed, bits(p.Goodput),
			p.Errors, p.Shed, p.Late, p.Units)
	}
	return fmt.Sprintf("%d decisions, goodput %.1f", len(r.Decisions), r.Goodput)
}

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

// hashScenario hashes a fault trial's timeline, recovery statistics,
// resilience counters and injector records.
func hashScenario(t *testing.T, h hash.Hash, sr *ScenarioResult) string {
	for _, p := range sr.Timeline {
		fmt.Fprintf(h, "p %s %d %s %d %s\n", bits(p.Second), p.Completed, bits(p.Goodput), p.Errors, bits(p.CJDBCBusy))
	}
	fmt.Fprintf(h, "r %s %d %d %s %d\n", bits(sr.PreFaultGoodput), sr.RecoveredAt, sr.RecoveryTime,
		bits(sr.MeanCJDBCBusy), sr.Errors)
	fmt.Fprintf(h, "s %s %s\n", bits(sr.SLA.Throughput()), bits(sr.SLA.Goodput(time.Second)))
	fmt.Fprintf(h, "res %+v\n", sr.TotalResilience())
	recs, err := json.Marshal(sr.Records)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "inj %s\n", recs)
	return fmt.Sprintf("pre-fault %.1f, recovery %v, errors %d, busy %.2f",
		sr.PreFaultGoodput, sr.RecoveryTime, sr.Errors, sr.MeanCJDBCBusy)
}

// digestFlashCrowd hashes a protected 1/1/1/1 absorbing a 4x spike under a
// 1s deadline: the timeline with its queue gauge, recovery, drain, and the
// shed and late counts.
func digestFlashCrowd(t *testing.T, h hash.Hash) string {
	run := smallOverloadConfig()
	run.Deadline = 250 * time.Millisecond
	fr, err := RunFlashCrowd(FlashCrowdConfig{
		Run:        run,
		BaseRate:   80,
		SpikeMult:  6,
		SpikeStart: 5 * time.Second,
		SpikeDur:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fr.Timeline {
		fmt.Fprintf(h, "p %s %d %s %d %d %d %s\n", bits(p.Second), p.Completed, bits(p.Goodput),
			p.Errors, p.Shed, p.Late, bits(p.Queued))
	}
	fmt.Fprintf(h, "r %s %d %d %d %d\n", bits(fr.PreSpikeGoodput), fr.RecoveredAt, fr.RecoveryTime,
		fr.DrainedAt, fr.DrainTime)
	fmt.Fprintf(h, "s %s %s %d %d %d\n", bits(fr.SLA.Throughput()), bits(fr.SLA.Goodput(time.Second)),
		fr.Errors, fr.Shed, fr.Late)
	return fmt.Sprintf("pre-spike %.1f, recovery %v, drain %v, shed %d, late %d",
		fr.PreSpikeGoodput, fr.RecoveryTime, fr.DrainTime, fr.Shed, fr.Late)
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
