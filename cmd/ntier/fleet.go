package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/fleet"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

// runFleet is `ntier fleet`: multi-tenant consolidation campaigns, with
// several independent n-tier application stacks co-located on one shared
// node pool, compared across placement strategies on per-tenant SLO
// attainment and fleet-wide goodput per node.
//
// Race three placements for a 3-tenant fleet (one hot tenant between two
// light ones) on 8 nodes with 2 server slots each:
//
//	ntier fleet -nodes 8 -slots 2 -hw 1/1/1/1 -soft 60-4-4 \
//	  -wl 400,2400,400 -placement PACKED,SPREAD,GREEDY
//
// Measure the noisy-neighbor interference matrix under PACKED, ramping each
// tenant in turn to 3x its load:
//
//	ntier fleet -nodes 8 -hw 1/1/1/1 -soft 60-4-4 -wl 400,400,400 \
//	  -placement PACKED -interference -aggr-scale 3
//
// An open-loop tenant is declared as open:RATE (Poisson arrivals) in -wl.
// GREEDY scores each tenant's servers by its mix's declared per-tier
// demands (tier.DeclaredDemand) at its offered load.
func runFleet(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("fleet", stderr)
	// -hw and -soft are per-tenant lists, parsed with the roster, and the
	// tenants derive their seeds from -seed, so the trial base has neither.
	tf := trialFlags{
		ramp:    fs.Duration("ramp", 40*time.Second, "ramp-up period (simulated)"),
		measure: fs.Duration("measure", 60*time.Second, "measured period (simulated)"),
		common:  registerCommonFlags(fs),
	}
	var (
		nodes = fs.Int("nodes", 8, "shared pool size (physical nodes)")
		slots = fs.Int("slots", 2, "tier-server slots per pool node")

		hwS    = fs.String("hw", "1/1/1/1", "per-tenant hardware #W/#A/#C/#D (one, or comma list per tenant)")
		softS  = fs.String("soft", "60-4-4", "per-tenant soft allocation Wt-At-Ac (one, or comma list per tenant)")
		wlS    = fs.String("wl", "400,2400,400", "per-tenant load: closed-loop users, or open:RATE (req/s); one entry per tenant")
		namesS = fs.String("names", "", "comma-separated tenant names (default t1..tN)")
		think  = fs.Duration("think", 7*time.Second, "closed-loop think time")
		sloS   = fs.String("slo", "1s", "per-tenant SLO bound (one, or comma list per tenant)")

		placeS  = fs.String("placement", "PACKED,SPREAD,GREEDY", "comma-separated placements to race")
		countsS = fs.String("counts", "", "tenant-count prefixes to sweep (default the full roster)")
		scaleS  = fs.String("scale", "1", "comma-separated load multipliers on every closed-loop tenant")

		seed      = fs.Uint64("seed", 1, "random seed (tenant seeds are derived per name)")
		budget    = fs.Int("budget", 0, "fleet-wide soft-unit budget split across tenants (0 = requests as-is)")
		sloTarget = fs.Float64("slo-target", 0.95, "attainment fraction a tenant must reach to meet its SLO")

		interference = fs.Bool("interference", false, "measure the aggressor x victim goodput-loss matrix instead of the sweep")
		aggrScale    = fs.Float64("aggr-scale", 3, "interference: aggressor load multiplier (> 1)")

		planOnly = fs.Bool("plan", false, "print the placement plans and exit without simulating")
		csvPath  = fs.String("csv", "", "write per-tenant sweep results as CSV to this file")
	)
	if code := tf.parse(fs, args); code != 0 {
		return code
	}
	tenants, err := parseTenants(*hwS, *softS, *wlS, *namesS, *sloS, *think)
	if err != nil {
		return failUsage(fs, err)
	}
	placements, err := parsePlacements(*placeS)
	if err != nil {
		return failUsage(fs, err)
	}
	counts, err := parseInts(*countsS)
	if err != nil {
		return failUsage(fs, fmt.Errorf("-counts: %w", err))
	}
	scales, err := parseFloats(*scaleS)
	if err != nil {
		return failUsage(fs, fmt.Errorf("-scale: %w", err))
	}

	ctx, stop := withSignalContext(context.Background())
	defer stop()

	base := tf.base(ctx)
	cfg := experiment.FleetSweepConfig{
		Run: base,
		Fleet: fleet.Options{
			Nodes:        *nodes,
			SlotsPerNode: *slots,
			Seed:         *seed,
			Tenants:      tenants,
			BudgetUnits:  *budget,
		},
		Placements:   placements,
		TenantCounts: counts,
		LoadScales:   scales,
		SLOTarget:    *sloTarget,
	}
	fail := func(err error) int { return exitErr(stderr, *tf.common.stateDir, err) }

	if *planOnly {
		for _, p := range placements {
			opts := cfg.Fleet
			opts.Placement = p
			plan, err := fleet.Plan(opts)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "%s:\n%s", p, fleet.FormatPlan(plan))
		}
		return 0
	}

	st, err := tf.common.openState(experiment.Fingerprint(base, "fleet",
		cfg.Fingerprint(), fmt.Sprint(*interference), fmt.Sprint(*aggrScale)))
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	cfg.Run.State = st

	if *interference {
		m, err := experiment.FleetInterference(cfg, placements[0], *aggrScale)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "interference under %s (aggressor load x%g; loss vs baseline goodput):\n\n",
			m.Placement, m.Scale)
		fmt.Fprint(stdout, m.Format())
		fmt.Fprintf(stdout, "\nbaseline goodput: ")
		for i, t := range m.Tenants {
			fmt.Fprintf(stdout, "%s %.1f/s  ", t, m.Baseline[i])
		}
		fmt.Fprintln(stdout)
		return 0
	}

	out, err := experiment.FleetSweep(cfg)
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "fleet sweep: %d tenants on %d nodes x %d slots\n\n",
		len(tenants), *nodes, *slots)
	for _, r := range out.Results {
		if r == nil {
			continue
		}
		fmt.Fprintf(stdout, "%s\n", r.Describe())
		for _, t := range r.PerTenant {
			met := "MET "
			if !t.SLOMet {
				met = "MISS"
			}
			fmt.Fprintf(stdout, "  %-10s %s  att %5.1f%%  goodput %7.1f/s  p95 %6.0fms  %s\n",
				t.Tenant, met, t.Attainment*100, t.Goodput, t.P95*1000, t.Verdict)
		}
	}

	if err := writeOutput(stdout, "\nper-tenant csv", *csvPath, out.WriteCSV); err != nil {
		return fail(err)
	}
	return 0
}

// parseTenants assembles the roster from the per-tenant flag lists. The -wl
// list fixes the tenant count; -hw, -soft, and -slo broadcast a single
// value or match it entry for entry.
func parseTenants(hwS, softS, wlS, namesS, sloS string, think time.Duration) ([]fleet.TenantSpec, error) {
	loads := strings.Split(wlS, ",")
	n := len(loads)

	hws, err := broadcast("-hw", hwS, n, testbed.ParseHardware)
	if err != nil {
		return nil, err
	}
	softs, err := broadcast("-soft", softS, n, testbed.ParseSoftAlloc)
	if err != nil {
		return nil, err
	}
	slos, err := broadcast("-slo", sloS, n, time.ParseDuration)
	if err != nil {
		return nil, err
	}
	var names []string
	if namesS != "" {
		names = strings.Split(namesS, ",")
		if len(names) != n {
			return nil, fmt.Errorf("-names: %d names for %d tenants", len(names), n)
		}
	}

	out := make([]fleet.TenantSpec, n)
	for i, l := range loads {
		t := fleet.TenantSpec{
			Name:      fmt.Sprintf("t%d", i+1),
			Hardware:  hws[i],
			Soft:      softs[i],
			ThinkMean: think,
			SLO:       slos[i],
		}
		if names != nil {
			t.Name = strings.TrimSpace(names[i])
		}
		l = strings.TrimSpace(l)
		if rate, ok := strings.CutPrefix(l, "open:"); ok {
			r, perr := strconv.ParseFloat(rate, 64)
			if perr != nil || r <= 0 {
				return nil, fmt.Errorf("-wl: bad open arrival rate %q", l)
			}
			t.Arrivals = trace.Poisson(r)
		} else {
			u, perr := strconv.Atoi(l)
			if perr != nil || u <= 0 {
				return nil, fmt.Errorf("-wl: bad load %q (want users or open:RATE)", l)
			}
			t.Users = u
		}
		out[i] = t
	}
	return out, nil
}

// broadcast parses a comma list of n values, or replicates a single one.
func broadcast[T any](flagName, s string, n int, parse func(string) (T, error)) ([]T, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 1 && len(parts) != n {
		return nil, fmt.Errorf("%s: %d values for %d tenants", flagName, len(parts), n)
	}
	out := make([]T, n)
	for i := 0; i < n; i++ {
		p := parts[0]
		if len(parts) == n {
			p = parts[i]
		}
		v, err := parse(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", flagName, err)
		}
		out[i] = v
	}
	return out, nil
}

// parsePlacements resolves the comma-separated placement list.
func parsePlacements(s string) ([]fleet.Placement, error) {
	var out []fleet.Placement
	for _, f := range strings.Split(s, ",") {
		p, err := fleet.ParsePlacement(f)
		if err != nil {
			return nil, fmt.Errorf("-placement: %w", err)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-placement: empty")
	}
	return out, nil
}
