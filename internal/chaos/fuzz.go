// Plan fuzzing: seeded, schema-bounded generation of randomized fault
// plans over the deployment's full injection surface. Every draw comes
// from one labeled stream, so a plan is a pure function of its seed — the
// campaign journal stores seeds, and a repro regenerates byte-identically.

package chaos

import (
	"sort"
	"time"

	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/testbed"
)

// PoolTarget is one leakable pool with its configured capacity, which
// bounds the units a generated leak may take.
type PoolTarget struct {
	Name string `json:"name"`
	Cap  int    `json:"cap"`
}

// TargetSet is the fault-injection surface plans are generated over, with
// every slice sorted by name so generation is independent of map order.
type TargetSet struct {
	Nodes []string     `json:"nodes"` // crashable servers
	CPUs  []string     `json:"cpus"`  // brownout targets
	Pools []PoolTarget `json:"pools"` // connection-leak targets
	Links []string     `json:"links"` // latency-spike targets
}

// TargetsOf derives the sorted target set from a built testbed.
func TargetsOf(tb *testbed.Testbed) TargetSet {
	ft := tb.FaultTargets()
	var ts TargetSet
	for n := range ft.Nodes {
		ts.Nodes = append(ts.Nodes, n)
	}
	for n := range ft.CPUs {
		ts.CPUs = append(ts.CPUs, n)
	}
	for n, p := range ft.Pools {
		ts.Pools = append(ts.Pools, PoolTarget{Name: n, Cap: p.Capacity()})
	}
	for n := range ft.Spikes {
		ts.Links = append(ts.Links, n)
	}
	sort.Strings(ts.Nodes)
	sort.Strings(ts.CPUs)
	sort.Strings(ts.Links)
	sort.Slice(ts.Pools, func(i, j int) bool { return ts.Pools[i].Name < ts.Pools[j].Name })
	return ts
}

// Discover builds the topology once, extracts its target set, and tears
// it down — the campaign's way to derive the surface without running.
func Discover(opts testbed.Options) (TargetSet, error) {
	tb, err := testbed.Build(opts)
	if err != nil {
		return TargetSet{}, err
	}
	defer tb.Close()
	return TargetsOf(tb), nil
}

// GenConfig bounds the plan generator: which targets, how many events,
// how long the fault horizon runs, and the magnitude bands per kind.
type GenConfig struct {
	Targets TargetSet

	// Horizon bounds every event's effective (post-jitter) window: all
	// faults revert within [0, Horizon] of the plan base.
	Horizon time.Duration

	MinEvents, MaxEvents int

	// JitterFrac is copied onto generated plans (fault.Plan.JitterFrac).
	JitterFrac float64
}

// The generator's magnitude bands: brown-outs run the CPU at a speed in
// [MinSpeed, MaxSpeed], and a spike adds at most MaxExtra per hop.
const (
	MinSpeed = 0.05
	MaxSpeed = 0.8
	MaxExtra = 25 * time.Millisecond
)

func (g *GenConfig) applyDefaults() {
	if g.Horizon == 0 {
		g.Horizon = time.Minute
	}
	if g.MinEvents <= 0 {
		g.MinEvents = 1
	}
	if g.MaxEvents < g.MinEvents {
		g.MaxEvents = g.MinEvents + 5
	}
}

// Generate derives one randomized plan from seed: a pure function of
// (GenConfig, seed), drawn from the labeled stream "chaos-plan". Windows
// may overlap freely — the injector composes same-target faults — and
// every event reverts, so a clean run must restore all invariants by
// Horizon. With JitterFrac set, nominal windows are compressed so even
// the worst-case jitter shift keeps every revert inside the horizon.
func (g GenConfig) Generate(seed uint64) fault.Plan {
	g.applyDefaults()
	r := rng.NewStream(seed, "chaos-plan")
	n := g.MinEvents
	if g.MaxEvents > g.MinEvents {
		n += r.Intn(g.MaxEvents - g.MinEvents + 1)
	}

	var kinds []fault.Kind
	if len(g.Targets.Nodes) > 0 {
		kinds = append(kinds, fault.KindCrash)
	}
	if len(g.Targets.CPUs) > 0 {
		kinds = append(kinds, fault.KindBrownout)
	}
	if len(g.Targets.Links) > 0 {
		kinds = append(kinds, fault.KindNetSpike)
	}
	if len(g.Targets.Pools) > 0 {
		kinds = append(kinds, fault.KindConnLeak)
	}
	if len(kinds) == 0 {
		return fault.Plan{JitterFrac: g.JitterFrac}
	}

	budget := float64(g.Horizon) / (1 + g.JitterFrac)
	events := make([]fault.Event, 0, n)
	for i := 0; i < n; i++ {
		start := time.Duration(r.Uniform(0, 0.6*budget))
		end := start + time.Duration(r.Uniform(0.05*budget, 0.3*budget))
		switch kinds[r.Intn(len(kinds))] {
		case fault.KindCrash:
			events = append(events, fault.Crash(pick(r, g.Targets.Nodes), start, end))
		case fault.KindBrownout:
			speed := r.Uniform(MinSpeed, MaxSpeed)
			events = append(events, fault.Brownout(pick(r, g.Targets.CPUs), start, end, speed))
		case fault.KindNetSpike:
			extra := time.Duration(r.Uniform(float64(time.Millisecond), float64(MaxExtra)))
			events = append(events, fault.NetSpike(pick(r, g.Targets.Links), start, end, extra))
		case fault.KindConnLeak:
			pt := g.Targets.Pools[r.Intn(len(g.Targets.Pools))]
			units := 1
			if pt.Cap > 1 {
				units += r.Intn(pt.Cap)
			}
			events = append(events, fault.ConnLeak(pt.Name, start, end, units))
		}
	}
	return fault.Plan{Events: events, JitterFrac: g.JitterFrac}
}

func pick(r *rng.Rand, names []string) string { return names[r.Intn(len(names))] }
