package experiment

// Fleet experiments: multi-tenant consolidation trials over a shared node
// pool (internal/fleet). RunFleet measures one (placement, roster) cell
// with per-tenant SLO collectors and obs attribution; FleetSweep races
// placement x tenant-count x per-tenant-load grids through the journaled
// executor; FleetInterference ramps each tenant in turn and reports every
// victim's goodput loss — the noisy-neighbor matrix.

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/softres/ntier/internal/fleet"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/testbed"
)

// FleetSweepConfig describes a consolidation campaign.
type FleetSweepConfig struct {
	// Run carries the trial protocol and execution knobs: RampUp, Measure,
	// Thresholds, Ctx, TrialTimeout, Parallelism, State, ObsDir/Obs,
	// OnTrial. Its Testbed/Users/Arrivals fields are ignored — the fleet
	// roster defines the topology and the load.
	Run RunConfig

	// Fleet is the pool and the full tenant roster. Placement is
	// overridden per grid cell.
	Fleet fleet.Options

	// Placements, TenantCounts (roster prefix sizes), and LoadScales
	// (multiplier on every closed-loop tenant's user population) span the
	// grid. Defaults: all placements, the full roster, scale 1.
	Placements   []fleet.Placement
	TenantCounts []int
	LoadScales   []float64

	// SLOTarget is the attainment fraction a tenant must reach for SLOMet
	// (default 0.95: at least 95% of its completed responses within the
	// tenant's SLO bound).
	SLOTarget float64
}

func (c *FleetSweepConfig) applyDefaults() {
	if len(c.Placements) == 0 {
		c.Placements = fleet.Placements()
	}
	if len(c.TenantCounts) == 0 {
		c.TenantCounts = []int{len(c.Fleet.Tenants)}
	}
	if len(c.LoadScales) == 0 {
		c.LoadScales = []float64{1}
	}
	if c.SLOTarget <= 0 {
		c.SLOTarget = 0.95
	}
	c.Run.applyDefaults()
}

// FleetTenantResult is one tenant's outcome within a fleet trial.
type FleetTenantResult struct {
	Tenant string `json:"tenant"`
	Users  int    `json:"users"` // effective closed-loop population (0 for open)

	Throughput float64 `json:"throughput"` // completions/s over the window
	Goodput    float64 `json:"goodput"`    // completions within the tenant SLO, /s
	P95        float64 `json:"p95"`        // response-time p95, seconds
	Attainment float64 `json:"attainment"` // fraction of completions within SLO
	SLOMet     bool    `json:"slo_met"`
	Errors     uint64  `json:"errors"`
	Shed       uint64  `json:"shed"`

	// Verdict is the obs bottleneck attribution for this tenant's stack
	// ("hardware: vic/apache1 CPU 98%", "soft: vic/tomcat1/conns ...",
	// or "-"), with the limited flags split out for programmatic use. A
	// hardware verdict on a shared node names the co-located contention;
	// the absence of a soft verdict clears the tenant's own pools.
	Verdict     string `json:"verdict"`
	Top         string `json:"top"` // most-utilized hardware resource
	HWLimited   bool   `json:"hw_limited"`
	SoftLimited bool   `json:"soft_limited"`
}

// FleetResult is one fleet trial: per-tenant outcomes plus fleet-wide
// efficiency. It is the journaled payload; resumed sweeps restore it
// verbatim.
type FleetResult struct {
	Placement fleet.Placement `json:"placement"`
	Tenants   int             `json:"tenants"`
	LoadScale float64         `json:"load_scale"`

	PerTenant []FleetTenantResult `json:"per_tenant"`

	// Assignments is the placement plan; NodesUsed the distinct pool
	// nodes it touches; GoodputPerNode the fleet goodput over used nodes
	// — the consolidation efficiency PACKED maximizes at the price of
	// interference.
	Assignments    []fleet.Assignment `json:"assignments"`
	NodesUsed      int                `json:"nodes_used"`
	FleetGoodput   float64            `json:"fleet_goodput"`
	GoodputPerNode float64            `json:"goodput_per_node"`
}

// SLOAttained counts tenants meeting their SLO target.
func (r *FleetResult) SLOAttained() int {
	n := 0
	for _, t := range r.PerTenant {
		if t.SLOMet {
			n++
		}
	}
	return n
}

// TenantResult returns the named tenant's row, or nil.
func (r *FleetResult) TenantResult(name string) *FleetTenantResult {
	for i := range r.PerTenant {
		if r.PerTenant[i].Tenant == name {
			return &r.PerTenant[i]
		}
	}
	return nil
}

// Describe summarizes the trial in one line.
func (r *FleetResult) Describe() string {
	return fmt.Sprintf("%-6s tenants=%d load=%.2g  SLO %d/%d met  fleet goodput %7.1f req/s on %d nodes (%.1f/node)",
		r.Placement, r.Tenants, r.LoadScale, r.SLOAttained(), len(r.PerTenant),
		r.FleetGoodput, r.NodesUsed, r.GoodputPerNode)
}

// scaledRoster returns the first count tenants with every closed-loop
// population multiplied by scale (minimum one user).
func scaledRoster(ts []fleet.TenantSpec, count int, scale float64) []fleet.TenantSpec {
	out := append([]fleet.TenantSpec(nil), ts[:count]...)
	for i := range out {
		if out[i].Arrivals != nil || scale == 1 {
			continue
		}
		u := int(scale*float64(out[i].Users) + 0.5)
		if u < 1 {
			u = 1
		}
		out[i].Users = u
	}
	return out
}

// RunFleet executes one consolidation trial: plan the placement, build the
// tenant stacks over the shared pool, ramp every workload, measure, and
// report per-tenant SLO outcomes with obs attribution. Deterministic: the
// same config reproduces identical results, and a tenant's numbers depend
// only on its own spec, its placement neighbors, and the shared hardware —
// never on other tenants' RNG draws.
func RunFleet(cfg FleetSweepConfig, placement fleet.Placement, tenants int, scale float64) (*FleetResult, error) {
	cfg.applyDefaults()
	if tenants <= 0 || tenants > len(cfg.Fleet.Tenants) {
		return nil, fmt.Errorf("experiment: fleet trial wants %d of %d tenants", tenants, len(cfg.Fleet.Tenants))
	}
	return runFleetRoster(cfg, placement, scaledRoster(cfg.Fleet.Tenants, tenants, scale), scale,
		fmt.Sprintf("k%d-x%g", tenants, scale))
}

// runFleetRoster is RunFleet for an explicit roster (the interference
// matrix ramps individual tenants through it). cell names the grid cell in
// each tenant's obs snapshot label.
func runFleetRoster(cfg FleetSweepConfig, placement fleet.Placement, roster []fleet.TenantSpec, scale float64, cell string) (res *FleetResult, err error) {
	cfg.applyDefaults()
	if cerr := ctxErr(cfg.Run.Ctx); cerr != nil {
		return nil, cerr
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, newPanicError(r)
		}
	}()

	fopts := cfg.Fleet
	fopts.Placement = placement
	fopts.Tenants = roster
	f, err := fleet.Build(fopts)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	defer watchdog(cfg.Run.Ctx, cfg.Run.TrialTimeout, f.Env)()

	// Each tenant is measured as its own trial over the shared environment;
	// the one pair of legs then runs them all, and one reset keeps their
	// windows aligned on the shared hardware.
	ms := make([]*measurement, len(f.Tenants))
	for i, t := range f.Tenants {
		label := "-" + strings.ToLower(string(placement)) + "-" + t.Spec.Name + "-" + cell
		ms[i], err = startMeasurement(tenantRun(cfg.Run, t), t.TB, nil, nil, label)
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %s workload: %w", t.Spec.Name, err)
		}
	}
	if err := runLegs(cfg.Run, f.Env, f.ResetStats, ms...); err != nil {
		return nil, err
	}

	res = &FleetResult{
		Placement:   placement,
		Tenants:     len(f.Tenants),
		LoadScale:   scale,
		Assignments: f.Plan,
		NodesUsed:   fleet.NodesUsed(f.Plan),
	}
	for i, t := range f.Tenants {
		tres, err := ms[i].result()
		if err != nil {
			return nil, err
		}
		slo := tres.Config.Obs.SLA
		// Per-tenant attribution reuses the single-app pipeline. The
		// tenant's logical nodes report the shared CPUs, so saturation
		// caused by a co-located neighbor surfaces as a hardware verdict
		// here while the tenant's own pools stay unsaturated.
		v := obs.Judge(Summarize(tres, slo), obs.JudgeConfig{})
		tr := FleetTenantResult{
			Tenant:     t.Spec.Name,
			Users:      t.Spec.Users,
			Throughput: tres.Throughput(),
			Goodput:    tres.Goodput(slo),
			P95:        tres.SLA.ResponseTimes().Percentile(95),
			Attainment: tres.SLA.SatisfactionRatio(slo),
			Errors:     tres.Errors,
			Shed:       tres.Shed,
			Top:        v.MostUtilized.String(),
		}
		if t.Spec.Arrivals != nil {
			tr.Users = 0
		}
		tr.SLOMet = tr.Attainment >= cfg.SLOTarget && tr.Errors == 0
		// The fleet's rule: any saturated pool with no saturated hardware
		// is a soft verdict (Steps also wants the hardware idle).
		sv := obs.StepVerdict{Kind: obs.StepNone, Soft: v.SaturatedSoft}
		switch {
		case v.HardwareLimited():
			tr.HWLimited = true
			sv.Kind, sv.Top = obs.StepHardware, v.SaturatedHW[0]
		case v.SoftLimited():
			tr.SoftLimited = true
			sv.Kind = obs.StepSoft
		}
		tr.Verdict = sv.Attribution()
		res.PerTenant = append(res.PerTenant, tr)
		res.FleetGoodput += tr.Goodput
	}
	if res.NodesUsed > 0 {
		res.GoodputPerNode = res.FleetGoodput / float64(res.NodesUsed)
	}
	return res, nil
}

// tenantRun is one tenant's trial: the fleet trial's protocol and
// execution settings with the tenant's stack, load and SLO, on the default
// client settings (a non-positive think time takes the default). A tenant
// has no deadline, timeline, window series or tracing.
func tenantRun(base RunConfig, t *fleet.Tenant) RunConfig {
	rc := base
	rc.Testbed = testbed.Options{Hardware: t.Spec.Hardware, Soft: t.Spec.Soft, Seed: t.Seed}
	rc.Users, rc.Arrivals, rc.Mix = t.Spec.Users, t.Spec.Arrivals, t.Spec.Mix
	rc.ThinkMean = max(t.Spec.ThinkMean, 0)
	rc.Deadline, rc.Timeline, rc.WindowUtil, rc.TraceEvery = 0, false, false, 0
	rc.Obs.SLA = t.Spec.SLO
	if rc.Obs.SLA <= 0 {
		rc.Obs.SLA = time.Second
	}
	rc.applyDefaults()
	return rc
}

// Fingerprint identifies the sweep by its configuration's image.
func (cfg FleetSweepConfig) Fingerprint() string { return FingerprintOf(cfg) }

// FleetOutcome is the sweep grid, placement-major then count then scale.
type FleetOutcome struct {
	Placements   []fleet.Placement
	TenantCounts []int
	LoadScales   []float64
	Results      []*FleetResult // index = (p*len(counts)+c)*len(scales)+s
}

// Result returns the grid cell, or nil.
func (o *FleetOutcome) Result(p fleet.Placement, count int, scale float64) *FleetResult {
	for pi, pl := range o.Placements {
		if pl != p {
			continue
		}
		for ci, c := range o.TenantCounts {
			if c != count {
				continue
			}
			for si, s := range o.LoadScales {
				if s == scale {
					return o.Results[(pi*len(o.TenantCounts)+ci)*len(o.LoadScales)+si]
				}
			}
		}
	}
	return nil
}

// WriteCSV writes one row per (cell, tenant).
func (o *FleetOutcome) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"placement", "tenants", "load_scale", "tenant", "users",
		"throughput", "goodput", "p95_s", "attainment", "slo_met", "errors", "shed",
		"verdict", "nodes_used", "goodput_per_node"}); err != nil {
		return err
	}
	for _, r := range o.Results {
		if r == nil {
			continue
		}
		for _, t := range r.PerTenant {
			row := []string{
				string(r.Placement), strconv.Itoa(r.Tenants), fmt.Sprintf("%g", r.LoadScale),
				t.Tenant, strconv.Itoa(t.Users),
				fmt.Sprintf("%.2f", t.Throughput), fmt.Sprintf("%.2f", t.Goodput),
				fmt.Sprintf("%.4f", t.P95), fmt.Sprintf("%.4f", t.Attainment),
				strconv.FormatBool(t.SLOMet), strconv.FormatUint(t.Errors, 10),
				strconv.FormatUint(t.Shed, 10), t.Verdict,
				strconv.Itoa(r.NodesUsed), fmt.Sprintf("%.2f", r.GoodputPerNode),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// FleetSweep runs every (placement, tenant-count, load-scale) cell through
// the bounded parallel executor, journaling each completed cell as its full
// FleetResult — a resumed sweep restores cells verbatim, byte-identical.
func FleetSweep(cfg FleetSweepConfig) (*FleetOutcome, error) {
	cfg.applyDefaults()
	if len(cfg.Fleet.Tenants) == 0 {
		return nil, fmt.Errorf("experiment: fleet sweep needs a tenant roster")
	}
	for _, c := range cfg.TenantCounts {
		if c <= 0 || c > len(cfg.Fleet.Tenants) {
			return nil, fmt.Errorf("experiment: tenant count %d outside roster of %d", c, len(cfg.Fleet.Tenants))
		}
	}
	out := &FleetOutcome{
		Placements:   append([]fleet.Placement(nil), cfg.Placements...),
		TenantCounts: append([]int(nil), cfg.TenantCounts...),
		LoadScales:   append([]float64(nil), cfg.LoadScales...),
	}
	cell := func(i int) (fleet.Placement, int, float64) {
		return cfg.Placements[i/(len(cfg.TenantCounts)*len(cfg.LoadScales))],
			cfg.TenantCounts[i/len(cfg.LoadScales)%len(cfg.TenantCounts)],
			cfg.LoadScales[i%len(cfg.LoadScales)]
	}
	var err error
	out.Results, err = Outs(RunCampaign(cfg.Run, Campaign[*FleetResult]{
		Kind: "fleet",
		Axes: []string{cfg.Fingerprint()},
		N:    len(cfg.Placements) * len(cfg.TenantCounts) * len(cfg.LoadScales),
		Key: func(i int) string {
			placement, count, scale := cell(i)
			return fmt.Sprintf("placement=%s tenants=%d scale=%g", placement, count, scale)
		},
		Run: func(i int) (*FleetResult, error) {
			placement, count, scale := cell(i)
			return RunFleet(cfg, placement, count, scale)
		},
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// InterferenceMatrix reports, for each aggressor tenant ramped to Scale
// times its load, every victim's relative goodput loss against the
// all-baseline trial: Loss[a][v] = 1 - goodput_v(aggressor a ramped) /
// goodput_v(baseline). The diagonal is the aggressor's own change (usually
// negative — ramping its load raises its own goodput until saturation).
type InterferenceMatrix struct {
	Placement fleet.Placement `json:"placement"`
	Scale     float64         `json:"scale"`
	Tenants   []string        `json:"tenants"`
	Baseline  []float64       `json:"baseline"` // per-tenant baseline goodput
	Loss      [][]float64     `json:"loss"`     // [aggressor][victim]
}

// Format renders the matrix as an ASCII table (victims across).
func (m *InterferenceMatrix) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "aggr \\ victim")
	for _, t := range m.Tenants {
		fmt.Fprintf(&b, " %10s", t)
	}
	b.WriteString("\n")
	for ai, a := range m.Tenants {
		fmt.Fprintf(&b, "%-14s", a+" x"+strconv.FormatFloat(m.Scale, 'g', -1, 64))
		for vi := range m.Tenants {
			fmt.Fprintf(&b, " %9.1f%%", m.Loss[ai][vi]*100)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FleetInterference measures the noisy-neighbor matrix for one placement
// over the full roster: a baseline trial, then one trial per aggressor with
// only that tenant's closed-loop load multiplied by scale. Trials are
// journaled alongside the sweep's (same state directory), so an interrupted
// campaign resumes without repeating finished cells.
func FleetInterference(cfg FleetSweepConfig, placement fleet.Placement, scale float64) (*InterferenceMatrix, error) {
	cfg.applyDefaults()
	roster := cfg.Fleet.Tenants
	if len(roster) == 0 {
		return nil, fmt.Errorf("experiment: interference matrix needs a tenant roster")
	}
	if scale <= 1 {
		return nil, fmt.Errorf("experiment: interference ramp scale %g must exceed 1", scale)
	}
	for _, t := range roster {
		if t.Arrivals != nil {
			return nil, fmt.Errorf("experiment: interference aggressor %s is open-loop; ramping needs a closed population", t.Name)
		}
	}
	// One trial per roster index; index len(roster) is the baseline. Each
	// perturbed roster differs from baseline only in the aggressor's
	// population — tenant seeds are name-keyed, so every victim replays
	// identical draws and any delta is interference, not noise.
	trials, err := Outs(RunCampaign(cfg.Run, Campaign[*FleetResult]{
		Kind: "fleet-interf",
		Axes: []string{cfg.Fingerprint(), fmt.Sprintf("placement=%s ramp=%g", placement, scale)},
		N:    len(roster) + 1,
		Key: func(i int) string {
			if i == len(roster) {
				return "baseline"
			}
			return "aggr=" + roster[i].Name
		},
		Run: func(i int) (*FleetResult, error) {
			r := append([]fleet.TenantSpec(nil), roster...)
			cell := "base"
			if i < len(roster) {
				r[i].Users = max(int(scale*float64(r[i].Users)+0.5), 1)
				cell = "aggr-" + roster[i].Name
			}
			return runFleetRoster(cfg, placement, r, 1, cell)
		},
	}))
	if err != nil {
		return nil, err
	}

	base := trials[len(roster)]
	m := &InterferenceMatrix{Placement: placement, Scale: scale}
	for _, t := range roster {
		m.Tenants = append(m.Tenants, t.Name)
	}
	for _, t := range base.PerTenant {
		m.Baseline = append(m.Baseline, t.Goodput)
	}
	for ai := range roster {
		row := make([]float64, len(roster))
		for vi, vname := range m.Tenants {
			tr := trials[ai].TenantResult(vname)
			if tr == nil || m.Baseline[vi] <= 0 {
				continue
			}
			row[vi] = 1 - tr.Goodput/m.Baseline[vi]
		}
		m.Loss = append(m.Loss, row)
	}
	return m, nil
}
