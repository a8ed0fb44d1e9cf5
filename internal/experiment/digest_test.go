package experiment

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math"
	"testing"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/fleet"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

var updatePins = flag.Bool("update-pins", false, "log fresh digest pins instead of checking them")

// TestDigestPins pins, at full precision, the two campaign outputs the
// bottleneck analyzer decides: a TOP_JOB elastic day's decision log (every
// grow and shrink follows an obs verdict) and a 3-tenant PACKED fleet's
// per-tenant attribution (Top, Verdict and the limited flags). Floats are
// hashed as their bits, so a refactor of the analyzer that keeps its
// decisions keeps every pin.
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
