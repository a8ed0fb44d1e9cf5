// Package fleet instantiates several independent n-tier application stacks
// over one shared hardware pool inside a single DES run — the consolidation
// setting the paper's single-application study (§II) leads to: soft
// over-allocation in one tenant becomes a noisy-neighbor problem for every
// stack sharing its CPUs and disks. Each tenant is a full testbed topology
// built under its own namespace (so obs series and audits stay
// unambiguous) with its servers aliased onto shared physical nodes
// according to a placement plan; per-tenant workloads and SLOs then measure
// how placement and soft-resource splits trade isolation for density.
package fleet

import (
	"fmt"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/hw"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

// TenantSpec describes one application stack of the fleet.
type TenantSpec struct {
	// Name namespaces every identity of the tenant's stack ("t1/tomcat1");
	// it must be unique within the fleet and free of "/".
	Name string

	Hardware testbed.Hardware  // tier server counts
	Soft     testbed.SoftAlloc // requested soft allocation (pre budget split)

	// Closed-loop load: an emulated-user population with exponential think
	// times (ThinkMean, default 7s). Ignored when Arrivals is set.
	Users     int
	ThinkMean time.Duration

	// Arrivals, when set, drives the tenant with an open arrival process
	// instead of a closed loop.
	Arrivals trace.ArrivalSpec

	// Mix is the navigation matrix (default browse-only).
	Mix *rubbos.Matrix

	// SLO is the tenant's response-time bound: responses within it count
	// toward SLO attainment and goodput (default 1s).
	SLO time.Duration
}

// slo returns the tenant's effective SLO threshold.
func (t TenantSpec) slo() time.Duration {
	if t.SLO > 0 {
		return t.SLO
	}
	return time.Second
}

// Options configures a fleet build.
type Options struct {
	// Nodes is the shared pool size; SlotsPerNode caps how many tier
	// servers one physical node hosts (default 2).
	Nodes        int
	SlotsPerNode int

	Seed      uint64
	Placement Placement // default SPREAD
	Tenants   []TenantSpec

	// BudgetUnits, when positive, caps the fleet's total soft-resource
	// units: tenant allocations shrink proportionally via SplitBudget.
	BudgetUnits int
}

func (o *Options) applyDefaults() {
	if o.SlotsPerNode <= 0 {
		o.SlotsPerNode = 2
	}
	if o.Placement == "" {
		o.Placement = PlacementSpread
	}
}

func (o *Options) validate() error {
	if o.Nodes <= 0 {
		return fmt.Errorf("fleet: pool needs at least one node")
	}
	if len(o.Tenants) == 0 {
		return fmt.Errorf("fleet: no tenants")
	}
	seen := map[string]bool{}
	for _, t := range o.Tenants {
		if t.Name == "" {
			return fmt.Errorf("fleet: tenant with empty name")
		}
		for i := 0; i < len(t.Name); i++ {
			if t.Name[i] == '/' {
				return fmt.Errorf("fleet: tenant name %q contains '/'", t.Name)
			}
		}
		if seen[t.Name] {
			return fmt.Errorf("fleet: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
		if err := t.Hardware.Validate(); err != nil {
			return fmt.Errorf("fleet: tenant %s: %w", t.Name, err)
		}
		if t.Users <= 0 && t.Arrivals == nil {
			return fmt.Errorf("fleet: tenant %s has neither users nor arrivals", t.Name)
		}
	}
	return nil
}

// Tenant is one running stack of a built fleet.
type Tenant struct {
	Spec TenantSpec       // Soft holds the effective (post-budget-split) allocation
	Seed uint64           // rng.SubSeed(fleet seed, "tenant/"+name)
	TB   *testbed.Testbed // the tenant's namespaced topology
}

// Fleet is a built multi-tenant deployment: one DES environment, one shared
// node pool, N tenant stacks aliased onto it.
type Fleet struct {
	Env     *des.Env
	Opts    Options
	Pool    []*hw.Node // physical nodes, "node1".."nodeN"
	Tenants []*Tenant
	Plan    []Assignment
}

// Build plans the placement and constructs every tenant stack over the
// shared pool. Tenant seeds are derived with rng.SubSeed keyed by tenant
// name, so one tenant's draws never depend on which other tenants exist or
// the order they are built in.
func Build(opts Options) (*Fleet, error) {
	opts.applyDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plan, err := Plan(opts)
	if err != nil {
		return nil, err
	}
	softs, err := SplitBudget(opts.BudgetUnits, opts.Tenants)
	if err != nil {
		return nil, err
	}
	byServer := make(map[string]int, len(plan))
	for _, a := range plan {
		byServer[a.Server] = a.nodeIdx
	}

	env := des.NewEnv()
	f := &Fleet{Env: env, Opts: opts, Plan: plan}
	for i := 0; i < opts.Nodes; i++ {
		f.Pool = append(f.Pool, hw.NewNode(env, fmt.Sprintf("node%d", i+1), hw.PC3000()))
	}

	for ti, spec := range opts.Tenants {
		spec.Soft = softs[ti]
		seed := rng.SubSeed(opts.Seed, "tenant/"+spec.Name)
		var placeErr error
		tb, berr := testbed.Build(testbed.Options{
			Hardware:  spec.Hardware,
			Soft:      spec.Soft,
			Seed:      seed,
			Env:       env,
			Namespace: spec.Name,
			Place: func(name string) *hw.Node {
				ni, ok := byServer[name]
				if !ok {
					// Unreachable as long as Plan and testbed.Build agree
					// on server naming; fail the build loudly, not quietly
					// misplace.
					placeErr = fmt.Errorf("fleet: no placement for server %q", name)
					return f.Pool[0].Alias(name)
				}
				return f.Pool[ni].Alias(name)
			},
		})
		if berr != nil {
			env.Shutdown()
			return nil, fmt.Errorf("fleet: tenant %s: %w", spec.Name, berr)
		}
		if placeErr != nil {
			env.Shutdown()
			return nil, placeErr
		}
		f.Tenants = append(f.Tenants, &Tenant{Spec: spec, Seed: seed, TB: tb})
	}
	return f, nil
}

// ResetStats starts a fresh measurement window on every tenant at once.
// Shared hardware is reset through each alias; repeated resets at one
// instant are idempotent, and resetting all tenants together keeps their
// windows aligned on the shared CPUs.
func (f *Fleet) ResetStats() {
	for _, t := range f.Tenants {
		t.TB.ResetStats()
	}
}

// audit runs every tenant's full conservation audit (scheduler, shared
// hardware through each tenant's aliases, servers, and the workload
// started on the tenant's testbed), returning all violations. Quiescent
// additionally requires drained pools, idle CPUs at full speed, and
// stopped workloads with nothing in flight — the fleet-wide conservation
// check of the consolidation regression tests. Pure read.
func (f *Fleet) audit(quiescent bool) []error {
	var errs []error
	for _, t := range f.Tenants {
		for _, err := range t.TB.Audit(quiescent) {
			errs = append(errs, fmt.Errorf("tenant %s: %w", t.Spec.Name, err))
		}
	}
	return errs
}

// Close shuts the shared environment down; every tenant is unusable after.
func (f *Fleet) Close() { f.Env.Shutdown() }
