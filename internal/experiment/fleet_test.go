package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/softres/ntier/internal/fleet"
	"github.com/softres/ntier/internal/testbed"
)

// consolidationConfig is the paper-grounded noisy-neighbor scenario: three
// 1/1/1/1 tenants on an 8-node/2-slot pool. The middle tenant is the
// aggressor — soft-over-allocated and, when ramped, driving far more load
// than one co-located application server can absorb.
func consolidationConfig(aggrUsers int) FleetSweepConfig {
	hw := testbed.Hardware{Web: 1, App: 1, Mid: 1, DB: 1}
	light := testbed.SoftAlloc{WebThreads: 60, AppThreads: 4, AppConns: 4}
	return FleetSweepConfig{
		Run: RunConfig{RampUp: 20 * time.Second, Measure: 40 * time.Second},
		Fleet: fleet.Options{
			Nodes: 8, SlotsPerNode: 2, Seed: 1,
			Tenants: []fleet.TenantSpec{
				{Name: "vic", Hardware: hw, Soft: light, Users: 400},
				{Name: "aggr", Hardware: hw,
					Soft:  testbed.SoftAlloc{WebThreads: 300, AppThreads: 30, AppConns: 20},
					Users: aggrUsers},
				{Name: "vic2", Hardware: hw, Soft: light, Users: 400},
			},
		},
	}
}

// Acceptance: under PACKED, ramping the aggressor degrades the co-located
// victim's p95 by at least 20%, and the observability verdict attributes
// the damage to shared hardware — the victim's own soft resources are
// explicitly cleared.
func TestRunFleetPackedNoisyNeighbor(t *testing.T) {
	baseline, err := RunFleet(consolidationConfig(600), fleet.PlacementPacked, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ramped, err := RunFleet(consolidationConfig(3000), fleet.PlacementPacked, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*FleetResult{baseline, ramped} {
		if len(r.PerTenant) != 3 {
			t.Fatalf("trial has %d tenants, want 3", len(r.PerTenant))
		}
	}
	vb, vr := baseline.TenantResult("vic2"), ramped.TenantResult("vic2")
	if vb == nil || vr == nil {
		t.Fatal("victim missing from results")
	}
	if vb.P95 <= 0 || vb.Errors > 0 {
		t.Fatalf("baseline victim unhealthy: %+v", vb)
	}
	if !vb.SLOMet {
		t.Fatalf("baseline victim misses its SLO (att %.3f); scenario is vacuous", vb.Attainment)
	}
	if vr.P95 < 1.2*vb.P95 {
		t.Errorf("aggressor ramp degraded victim p95 only %.0fms -> %.0fms, want >= 20%%",
			vb.P95*1000, vr.P95*1000)
	}
	// Attribution: the victim is hardware-limited on a node it shares with
	// an aggressor server, not limited by its own soft resources.
	if !vr.HWLimited {
		t.Errorf("victim verdict %q is not hardware-limited", vr.Verdict)
	}
	if vr.SoftLimited {
		t.Errorf("victim wrongly attributed to its own soft resources: %q", vr.Verdict)
	}
	if !strings.Contains(vr.Verdict, "vic2/") {
		t.Errorf("verdict %q does not name a victim server", vr.Verdict)
	}
	// The saturated victim server really is co-scheduled with the
	// aggressor: its pool node also hosts an aggr/ server in the plan.
	nodeByServer := map[string]string{}
	byNode := map[string][]string{}
	for _, a := range ramped.Assignments {
		nodeByServer[a.Server] = a.Node
		byNode[a.Node] = append(byNode[a.Node], a.Server)
	}
	satNode := nodeByServer["vic2/tomcat1"]
	if satNode == "" {
		t.Fatal("vic2/tomcat1 missing from plan")
	}
	shared := false
	for _, s := range byNode[satNode] {
		if strings.HasPrefix(s, "aggr/") {
			shared = true
		}
	}
	if !shared {
		t.Errorf("saturated node %s hosts no aggressor server: %v", satNode, byNode[satNode])
	}
	// The far victim rides out the storm: only co-located tenants pay.
	if far := ramped.TenantResult("vic"); far == nil || !far.SLOMet {
		t.Errorf("non-co-located tenant lost its SLO too: %+v", far)
	}
}

// Acceptance: demand-aware GREEDY placement restores every tenant's SLO at
// the same node count that PACKED fails at, by pairing hot servers with
// cold ones instead of each other.
func TestRunFleetGreedyRestoresSLOs(t *testing.T) {
	cfg := consolidationConfig(3000)
	packed, err := RunFleet(cfg, fleet.PlacementPacked, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := RunFleet(cfg, fleet.PlacementGreedy, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if packed.SLOAttained() >= 3 {
		t.Fatalf("PACKED met all SLOs (%d/3); consolidation scenario is vacuous", packed.SLOAttained())
	}
	if got := greedy.SLOAttained(); got != 3 {
		for _, tr := range greedy.PerTenant {
			t.Logf("  %s: att %.3f met=%v verdict=%s", tr.Tenant, tr.Attainment, tr.SLOMet, tr.Verdict)
		}
		t.Errorf("GREEDY met %d/3 SLOs at the same pool size", got)
	}
	if greedy.FleetGoodput <= packed.FleetGoodput {
		t.Errorf("GREEDY fleet goodput %.1f not above PACKED's %.1f",
			greedy.FleetGoodput, packed.FleetGoodput)
	}
}

func TestFleetInterferenceMatrix(t *testing.T) {
	cfg := consolidationConfig(600)
	cfg.Run.Measure = 30 * time.Second
	m, err := FleetInterference(cfg, fleet.PlacementPacked, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tenants) != 3 || len(m.Loss) != 3 || len(m.Baseline) != 3 {
		t.Fatalf("matrix shape wrong: %+v", m)
	}
	idx := map[string]int{}
	for i, n := range m.Tenants {
		idx[n] = i
	}
	// The PACKED plan pairs aggr/tomcat1 with vic2/tomcat1: ramping the
	// aggressor must hurt vic2 hard while vic (no shared node with the
	// aggressor's hot tier) stays within noise.
	ai, vi, fi := idx["aggr"], idx["vic2"], idx["vic"]
	if loss := m.Loss[ai][vi]; loss < 0.2 {
		t.Errorf("aggressor ramp cost vic2 only %.1f%% goodput, want >= 20%%", loss*100)
	}
	if loss := m.Loss[ai][fi]; loss > 0.1 {
		t.Errorf("non-co-located vic lost %.1f%% goodput, want noise", loss*100)
	}
	if out := m.Format(); !strings.Contains(out, "aggr") {
		t.Errorf("formatted matrix missing tenants:\n%s", out)
	}
}

// Sweeps journal every cell and resume byte-identically with zero
// re-simulation.
func TestFleetSweepJournalResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	cfg := consolidationConfig(600)
	cfg.Run.Measure = 30 * time.Second
	cfg.Placements = []fleet.Placement{fleet.PlacementPacked, fleet.PlacementGreedy}
	cfg.LoadScales = []float64{1, 2}

	st, err := OpenState(dir, "fleet-test", false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Run.State = st
	first, err := FleetSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = OpenState(dir, "fleet-test", true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg.Run.State = st
	restored, ran := 0, 0
	var mu sync.Mutex // workers call OnTrial concurrently
	cfg.Run.OnTrial = func(key string, wasRestored bool, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			t.Errorf("trial %s: %v", key, err)
		}
		if wasRestored {
			restored++
		} else {
			ran++
		}
	}
	second, err := FleetSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 || restored != len(first.Results) {
		t.Errorf("resume ran %d trials and restored %d, want 0 and %d", ran, restored, len(first.Results))
	}
	for i := range first.Results {
		a, _ := json.Marshal(first.Results[i])
		b, _ := json.Marshal(second.Results[i])
		if string(a) != string(b) {
			t.Errorf("cell %d not byte-identical after resume:\n%s\nvs\n%s", i, a, b)
		}
	}
	// Grid accessor and scaled cells behave.
	if c := second.Result(fleet.PlacementGreedy, 3, 2); c == nil || c.LoadScale != 2 {
		t.Error("grid lookup failed for GREEDY scale 2")
	}
	if c := second.Result(fleet.PlacementPacked, 3, 1); c == nil || c.NodesUsed != 6 {
		t.Errorf("PACKED cell nodes used = %+v, want 6", c)
	}
}

// TestFleetJournalsPinned pins the journal names of a fleet sweep and an
// interference matrix. Journal files are named by fingerprint, so a moved
// name leaves the journals of earlier releases unread: their cells re-run
// instead of restoring.
func TestFleetJournalsPinned(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the journal opens and no trial runs
	journal := func(interference bool, p fleet.Placement) string {
		dir := filepath.Join(t.TempDir(), "state")
		st, err := OpenState(dir, "fleet-test", false)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cfg := smallFleet()
		cfg.Run.Ctx, cfg.Run.State = ctx, st
		cfg.Placements = []fleet.Placement{p}
		if interference {
			_, err = FleetInterference(cfg, p, 3)
		} else {
			_, err = FleetSweep(cfg)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled campaign: %v", err)
		}
		names, _ := filepath.Glob(filepath.Join(dir, "*.journal"))
		if len(names) != 1 {
			t.Fatalf("%d journals, want 1", len(names))
		}
		return filepath.Base(names[0])
	}
	cases := []struct {
		interference bool
		p            fleet.Placement
		want         string
	}{
		{false, fleet.PlacementPacked, "fleet-c0e726c1e3c9670f.journal"},
		{false, fleet.PlacementGreedy, "fleet-9861605280f5c833.journal"},
		{true, fleet.PlacementPacked, "fleet-interf-ac18e41a401766e4.journal"},
		{true, fleet.PlacementGreedy, "fleet-interf-6732e91c7f1d5590.journal"},
	}
	for _, tc := range cases {
		if got := journal(tc.interference, tc.p); got != tc.want {
			t.Errorf("%s (interference %t) journal %s, want %s", tc.p, tc.interference, got, tc.want)
		}
	}
}

// An interference matrix journals its baseline and every aggressor ramp;
// a resumed call restores all of them and rebuilds the identical matrix.
func TestFleetInterferenceJournalResume(t *testing.T) {
	hw := testbed.Hardware{Web: 1, App: 1, Mid: 1, DB: 1}
	soft := testbed.SoftAlloc{WebThreads: 50, AppThreads: 6, AppConns: 6}
	cfg := FleetSweepConfig{
		Run: RunConfig{RampUp: 5 * time.Second, Measure: 15 * time.Second},
		Fleet: fleet.Options{Nodes: 4, SlotsPerNode: 2, Seed: 1, Tenants: []fleet.TenantSpec{
			{Name: "t1", Hardware: hw, Soft: soft, Users: 100},
			{Name: "t2", Hardware: hw, Soft: soft, Users: 400},
		}},
	}
	dir := filepath.Join(t.TempDir(), "state")
	matrix := func(resume bool) (m *InterferenceMatrix, restored, ran int) {
		st, err := OpenState(dir, "interference-test", resume)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var mu sync.Mutex
		cfg.Run.State = st
		cfg.Run.OnTrial = func(key string, wasRestored bool, err error) {
			mu.Lock()
			defer mu.Unlock()
			if wasRestored {
				restored++
			} else {
				ran++
			}
		}
		m, err = FleetInterference(cfg, fleet.PlacementPacked, 3)
		if err != nil {
			t.Fatal(err)
		}
		return m, restored, ran
	}
	first, _, ran := matrix(false)
	if ran != len(cfg.Fleet.Tenants)+1 {
		t.Fatalf("first call ran %d trials, want %d", ran, len(cfg.Fleet.Tenants)+1)
	}
	second, restored, ran := matrix(true)
	if ran != 0 || restored != len(cfg.Fleet.Tenants)+1 {
		t.Errorf("resume ran %d trials and restored %d, want 0 and %d", ran, restored, len(cfg.Fleet.Tenants)+1)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed matrix differs:\n%s\nvs\n%s", first.Format(), second.Format())
	}
}

// The scaled-roster helper multiplies closed-loop populations only.
func TestScaledRoster(t *testing.T) {
	cfg := consolidationConfig(600)
	r := scaledRoster(cfg.Fleet.Tenants, 2, 2.5)
	if len(r) != 2 {
		t.Fatalf("roster length %d, want 2", len(r))
	}
	if r[0].Users != 1000 || r[1].Users != 1500 {
		t.Errorf("scaled users = %d, %d; want 1000, 1500", r[0].Users, r[1].Users)
	}
	if cfg.Fleet.Tenants[0].Users != 400 {
		t.Error("scaledRoster mutated the original roster")
	}
}
