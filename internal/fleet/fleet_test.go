package fleet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/testbed"
)

// roster3 is the standard probe fleet: a hot tenant between two light ones,
// all 1/1/1/1, with distinct loads so demand ranks are unambiguous.
func roster3() []TenantSpec {
	soft := testbed.SoftAlloc{WebThreads: 60, AppThreads: 4, AppConns: 4}
	hw := testbed.Hardware{Web: 1, App: 1, Mid: 1, DB: 1}
	return []TenantSpec{
		{Name: "vic", Hardware: hw, Soft: soft, Users: 400},
		{Name: "aggr", Hardware: hw, Soft: testbed.SoftAlloc{WebThreads: 300, AppThreads: 30, AppConns: 20}, Users: 2400},
		{Name: "vic2", Hardware: hw, Soft: soft, Users: 800},
	}
}

func planOpts(p Placement) Options {
	return Options{Nodes: 8, SlotsPerNode: 2, Placement: p, Tenants: roster3(), Seed: 7}
}

// nodeOf indexes a plan by server name.
func nodeOf(t *testing.T, plan []Assignment, server string) string {
	t.Helper()
	for _, a := range plan {
		if a.Server == server {
			return a.Node
		}
	}
	t.Fatalf("server %s not in plan", server)
	return ""
}

func TestPlanPackedConsolidatesCrossTenant(t *testing.T) {
	plan, err := Plan(planOpts(PlacementPacked))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 12 {
		t.Fatalf("plan has %d assignments, want 12", len(plan))
	}
	// Density objective: 12 servers on 2-slot nodes is 6 nodes, not 8.
	if n := NodesUsed(plan); n != 6 {
		t.Errorf("PACKED uses %d nodes, want 6", n)
	}
	// Tier-major first-fit co-locates different tenants' same-tier servers:
	// the two hottest application servers share one node.
	if a, b := nodeOf(t, plan, "aggr/tomcat1"), nodeOf(t, plan, "vic2/tomcat1"); a != b {
		t.Errorf("PACKED split aggr/tomcat1 (%s) from vic2/tomcat1 (%s)", a, b)
	}
	// Determinism: same options, same plan.
	again, err := Plan(planOpts(PlacementPacked))
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan {
		if plan[i] != again[i] {
			t.Fatalf("plan not deterministic at %d: %+v vs %+v", i, plan[i], again[i])
		}
	}
}

func TestPlanSpreadBalances(t *testing.T) {
	plan, err := Plan(planOpts(PlacementSpread))
	if err != nil {
		t.Fatal(err)
	}
	if n := NodesUsed(plan); n != 8 {
		t.Errorf("SPREAD uses %d nodes, want all 8", n)
	}
	// Round-robin: no node exceeds ceil(12/8) = 2, none left with 3+.
	perNode := map[string]int{}
	for _, a := range plan {
		perNode[a.Node]++
	}
	for n, c := range perNode {
		if c > 2 {
			t.Errorf("SPREAD put %d servers on %s", c, n)
		}
	}
}

func TestPlanGreedySeparatesHotServers(t *testing.T) {
	opts := planOpts(PlacementGreedy)
	plan, err := Plan(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Demand-scored packing must never co-locate two of the three hottest
	// servers while cold nodes have room, and its worst node must carry no
	// more estimated demand than PACKED's.
	demands := map[string]float64{}
	var ranked []server
	for _, s := range opts.servers() {
		demands[s.name] = s.demand
		ranked = append(ranked, s)
	}
	maxLoad := func(plan []Assignment) float64 {
		load := map[string]float64{}
		worst := 0.0
		for _, a := range plan {
			load[a.Node] += demands[a.Server]
			if load[a.Node] > worst {
				worst = load[a.Node]
			}
		}
		return worst
	}
	packed, err := Plan(planOpts(PlacementPacked))
	if err != nil {
		t.Fatal(err)
	}
	if g, p := maxLoad(plan), maxLoad(packed); g > p {
		t.Errorf("GREEDY's hottest node (%.4f) is hotter than PACKED's (%.4f)", g, p)
	}
	// Top-3 by demand pairwise separated.
	top := append([]server(nil), ranked...)
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j].demand > top[i].demand {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			ni := nodeOf(t, plan, top[i].name)
			nj := nodeOf(t, plan, top[j].name)
			if ni == nj {
				t.Errorf("GREEDY co-located hot servers %s and %s on %s", top[i].name, top[j].name, ni)
			}
		}
	}
}

func TestPlanCapacityError(t *testing.T) {
	opts := planOpts(PlacementPacked)
	opts.Nodes = 2 // 4 slots for 12 servers
	if _, err := Plan(opts); err == nil {
		t.Fatal("expected a capacity error")
	}
	if _, err := ParsePlacement("nope"); err == nil {
		t.Fatal("expected a parse error")
	}
	for _, p := range Placements() {
		got, err := ParsePlacement(strings.ToLower(string(p)))
		if err != nil || got != p {
			t.Errorf("ParsePlacement(%q) = %v, %v", p, got, err)
		}
	}
}

func TestSplitBudget(t *testing.T) {
	tenants := roster3()
	units := 0
	for _, ten := range tenants {
		units += ten.Soft.Units(ten.Hardware)
	}
	// A budget at or above the requested total keeps every request as-is.
	keep, err := SplitBudget(units, tenants)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tenants {
		if keep[i] != tenants[i].Soft {
			t.Errorf("tenant %s shrunk under a sufficient budget", tenants[i].Name)
		}
	}
	// Halving the budget shrinks proportionally and never below one unit.
	half, err := SplitBudget(units/2, tenants)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range tenants {
		if half[i].WebThreads < 1 || half[i].AppThreads < 1 || half[i].AppConns < 1 {
			t.Errorf("tenant %s shrunk below one unit: %+v", tenants[i].Name, half[i])
		}
		if half[i].WebThreads > tenants[i].Soft.WebThreads {
			t.Errorf("tenant %s grew under a tight budget", tenants[i].Name)
		}
		total += half[i].Units(tenants[i].Hardware)
	}
	if total > units/2+3 { // +3: per-pool floor of one unit may round up
		t.Errorf("split total %d exceeds budget %d", total, units/2)
	}
}

// smallFleet builds a 2-tenant consolidation: every node shared tenant-A /
// tenant-B under PACKED, light loads so trials run fast.
func smallFleet(t *testing.T) *Fleet {
	t.Helper()
	soft := testbed.SoftAlloc{WebThreads: 50, AppThreads: 6, AppConns: 6}
	hw := testbed.Hardware{Web: 1, App: 1, Mid: 1, DB: 1}
	f, err := Build(Options{
		Nodes: 4, SlotsPerNode: 2, Placement: PlacementPacked, Seed: 11,
		Tenants: []TenantSpec{
			{Name: "a", Hardware: hw, Soft: soft, Users: 30, ThinkMean: 300 * time.Millisecond},
			{Name: "b", Hardware: hw, Soft: soft, Users: 30, ThinkMean: 300 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// startLoads starts every tenant's closed-loop load as a fleet trial does
// (two client nodes, a one-second ramp, browse-only mix, the tenant's seed)
// and returns the workloads in tenant order. collect, when set, receives
// tenant ti's completions.
func startLoads(t *testing.T, f *Fleet, collect func(ti int, issued, rt time.Duration, err error)) []*rubbos.Workload {
	t.Helper()
	ws := make([]*rubbos.Workload, len(f.Tenants))
	for ti, tn := range f.Tenants {
		var c rubbos.Collector
		if collect != nil {
			c = func(_ *rubbos.Interaction, issued, rt time.Duration, err error) { collect(ti, issued, rt, err) }
		}
		w, err := tn.TB.StartWorkload(rubbos.ClientConfig{
			Users:     tn.Spec.Users,
			ThinkMean: tn.Spec.ThinkMean,
			RampUp:    time.Second,
			Matrix:    rubbos.BrowseOnlyMix(),
			Seed:      tn.Seed,
		}, c)
		if err != nil {
			t.Fatal(err)
		}
		ws[ti] = w
	}
	return ws
}

// drainFleet advances the clock until every process has exited and the
// event queue is empty, or the budget runs out.
func drainFleet(t *testing.T, f *Fleet, budget time.Duration) {
	t.Helper()
	deadline := f.Env.Now() + budget
	for f.Env.Now() < deadline && (f.Env.Live() > 0 || f.Env.Pending() > 0) {
		f.Env.Run(f.Env.Now() + time.Second)
	}
	if f.Env.Live() > 0 || f.Env.Pending() > 0 {
		t.Fatalf("fleet did not drain: %d live processes, %d pending events", f.Env.Live(), f.Env.Pending())
	}
}

// A two-tenant consolidated trial must pass conservation audits per tenant
// mid-run and fleet-wide at quiescence — the regression gate for the
// multi-tenant refactor of the audit surface.
func TestFleetAuditQuiescent(t *testing.T) {
	f := smallFleet(t)
	defer f.Close()
	done := make([]int, len(f.Tenants))
	ws := startLoads(t, f, func(ti int, _, _ time.Duration, err error) {
		if err == nil {
			done[ti]++
		}
	})
	f.Env.Run(10 * time.Second)
	if errs := f.audit(false); len(errs) > 0 {
		t.Fatalf("mid-run audit violations: %v", errs)
	}
	for ti, n := range done {
		if n == 0 {
			t.Fatalf("tenant %s completed nothing; audit is vacuous", f.Tenants[ti].Spec.Name)
		}
	}
	for _, w := range ws {
		w.Stop()
	}
	drainFleet(t, f, time.Minute)
	if errs := f.audit(true); len(errs) > 0 {
		t.Errorf("quiescent audit violations: %v", errs)
	}
}

// Resizing tenant A's soft allocation mid-run must leave tenant B — sharing
// every physical node — completely untouched: pool capacities, soft units,
// and B's recorded /cap observability series.
func TestApplySoftTenantIsolation(t *testing.T) {
	f := smallFleet(t)
	defer f.Close()
	a, b := f.Tenants[0], f.Tenants[1]

	capsOf := func(tn *Tenant) map[string]int {
		caps := map[string]int{}
		for name, p := range tn.TB.FaultTargets().Pools {
			caps[name] = p.Capacity()
		}
		return caps
	}
	beforeCaps := capsOf(b)
	beforeUnits := b.TB.SoftUnits()

	rec := obs.Attach(b.TB, obs.Config{})
	const windows = 12
	for k := 1; k <= windows; k++ {
		f.Env.At(time.Duration(k)*obs.SampleInterval, rec.Sample)
	}
	startLoads(t, f, nil)
	f.Env.Run(5 * time.Second)
	resized := testbed.SoftAlloc{WebThreads: 200, AppThreads: 24, AppConns: 12}
	if err := a.TB.ApplySoft(resized); err != nil {
		t.Fatal(err)
	}
	f.Env.Run(12 * time.Second)

	if got := b.TB.SoftUnits(); got != beforeUnits {
		t.Errorf("tenant b units changed %d -> %d after resizing tenant a", beforeUnits, got)
	}
	for name, c := range capsOf(b) {
		if beforeCaps[name] != c {
			t.Errorf("tenant b pool %s capacity changed %d -> %d", name, beforeCaps[name], c)
		}
	}
	// B's /cap series must be flat — the resize of A must not even show up
	// as a blip in B's observability record.
	snap := rec.Snapshot(obs.TrialSummary{})
	capSeries := 0
	for _, s := range snap.Series {
		if !strings.HasSuffix(s.Name, "/cap") {
			continue
		}
		capSeries++
		if len(s.Values) != windows {
			t.Errorf("series %s holds %d samples, want %d", s.Name, len(s.Values), windows)
		}
		if !strings.HasPrefix(s.Name, "b/") {
			t.Errorf("tenant b recorder sampled foreign series %s", s.Name)
		}
		for i, v := range s.Values {
			if v != s.Values[0] {
				t.Errorf("series %s moved at sample %d: %v", s.Name, i, s.Values)
				break
			}
		}
	}
	if capSeries == 0 {
		t.Fatal("no /cap series recorded; isolation check is vacuous")
	}
	// And A's own resize did land.
	if got, want := a.TB.SoftUnits(), resized.Units(a.Spec.Hardware); got != want {
		t.Errorf("tenant a units = %d after resize, want %d", got, want)
	}
}

// A tenant's measured behavior must not depend on which other tenants
// exist when no hardware is shared: adding a third tenant on disjoint
// nodes replays tenant a's trial exactly (name-keyed derived seeds).
func TestTenantIndependenceAcrossRosters(t *testing.T) {
	soft := testbed.SoftAlloc{WebThreads: 50, AppThreads: 6, AppConns: 6}
	hw := testbed.Hardware{Web: 1, App: 1, Mid: 1, DB: 1}
	base := []TenantSpec{
		{Name: "a", Hardware: hw, Soft: soft, Users: 25, ThinkMean: 300 * time.Millisecond},
		{Name: "b", Hardware: hw, Soft: soft, Users: 25, ThinkMean: 300 * time.Millisecond},
	}
	extra := TenantSpec{Name: "c", Hardware: hw, Soft: soft, Users: 25, ThinkMean: 300 * time.Millisecond}

	run := func(tenants []TenantSpec) (count int, sum time.Duration) {
		// SlotsPerNode 1 on a wide pool: every server gets a dedicated
		// node, so rosters differ only in what else exists in the env.
		f, err := Build(Options{
			Nodes: 12, SlotsPerNode: 1, Placement: PlacementSpread, Seed: 3,
			Tenants: tenants,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		startLoads(t, f, func(ti int, _, rt time.Duration, err error) {
			if f.Tenants[ti].Spec.Name == "a" && err == nil {
				count++
				sum += rt
			}
		})
		f.Env.Run(20 * time.Second)
		return count, sum
	}

	c2, s2 := run(base)
	c3, s3 := run(append(append([]TenantSpec(nil), base...), extra))
	if c2 == 0 {
		t.Fatal("tenant a completed nothing")
	}
	if c2 != c3 || s2 != s3 {
		t.Errorf("tenant a perturbed by tenant c on disjoint nodes: %d/%v vs %d/%v", c2, s2, c3, s3)
	}
	// Reordering the roster must not matter either.
	rev := []TenantSpec{base[1], base[0]}
	c2r, s2r := run(rev)
	if c2 != c2r || s2 != s2r {
		t.Errorf("tenant a perturbed by roster order: %d/%v vs %d/%v", c2, s2, c2r, s2r)
	}
}

// Fleet seeds derive per tenant name, and shared-CPU trials stay
// reproducible: two identical builds replay byte-identical goodput.
func TestFleetDeterministicReplay(t *testing.T) {
	run := func() string {
		f := smallFleet(t)
		defer f.Close()
		var log strings.Builder
		startLoads(t, f, func(ti int, issued, rt time.Duration, err error) {
			fmt.Fprintf(&log, "%d %d %d %v\n", ti, issued, rt, err)
		})
		f.Env.Run(15 * time.Second)
		return log.String()
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("no interactions logged")
	}
	if a != b {
		t.Error("identical fleet builds produced different interaction logs")
	}
}
