package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/search"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

// runElastic is `ntier elastic`: live soft-resource reallocation policies
// against the static baseline over day-shaped traffic traces, scoring each
// on goodput per allocated soft-resource-unit.
//
// Compare TOP_JOB against the static allocation on a compressed diurnal day:
//
//	ntier elastic -hw 1/2/1/2 -soft 60-4-4 -policy STATIC,TOP_JOB \
//	  -trace diurnal -day 8m -low 40 -high 120
//
// SOFTMAX needs the MVA surrogate; the subcommand calibrates it from one
// closed-loop trial on a generous allocation before the sweep:
//
//	ntier elastic -hw 1/2/1/2 -soft 60-4-4 -policy SOFTMAX -calib-soft 400-30-20
func runElastic(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("elastic", stderr)
	tf := trialFlags{
		hw:     fs.String("hw", "1/2/1/2", "hardware configuration #W/#A/#C/#D"),
		soft:   fs.String("soft", "60-4-4", "starting (and STATIC baseline) allocation Wt-At-Ac"),
		seed:   fs.Uint64("seed", 1, "random seed"),
		ramp:   fs.Duration("ramp", 40*time.Second, "ramp-up period (simulated)"),
		common: registerCommonFlags(fs),
	}
	var (
		policyS  = fs.String("policy", "STATIC,TOP_JOB", "comma-separated policies: STATIC, UNIFORM, TOP_JOB, SOFTMAX")
		traceS   = fs.String("trace", "diurnal", "comma-separated traces: diurnal, mmpp, flash")
		day      = fs.Duration("day", 8*time.Minute, "trace day length (simulated; the measured window)")
		low      = fs.Float64("low", 40, "trough arrival rate (req/s)")
		high     = fs.Float64("high", 120, "peak arrival rate (req/s)")
		deadline = fs.Duration("deadline", 0, "end-to-end request deadline (0 = none)")
		slaS     = fs.Duration("sla", time.Second, "goodput threshold")
		window   = fs.Duration("window", 10*time.Second, "timeline bucket width")

		interval = fs.Duration("interval", 20*time.Second, "control period")
		budget   = fs.Int("budget", 0, "total soft-unit budget (0 = the starting allocation's units)")
		step     = fs.Int("step", 16, "max per-server capacity change per interval")
		deadband = fs.Int("deadband", 2, "hysteresis: ignore per-server deltas below this")
		cooldown = fs.Duration("cooldown", 0, "min time between resizes of one axis (0 = 2x interval)")

		calibSoft = fs.String("calib-soft", "400-30-20", "SOFTMAX: generous calibration allocation")
		calibWL   = fs.Int("calib-wl", 3000, "SOFTMAX: calibration workload (closed-loop users)")

		decisionsOn = fs.Bool("decisions", true, "print each policy's decision log")
		csvPath     = fs.String("csv", "", "write the summary table as CSV to this file")
		tlPath      = fs.String("timeline-csv", "", "write per-cell timelines as CSV files with this prefix")
	)
	if code := tf.parse(fs, args); code != 0 {
		return code
	}
	policies, err := parsePolicies(*policyS)
	if err != nil {
		return failUsage(fs, fmt.Errorf("-policy: %w", err))
	}
	traces, err := buildTraces(*traceS, *low, *high, *day)
	if err != nil {
		return failUsage(fs, err)
	}
	if *window > 0 && *day%*window != 0 {
		return failUsage(fs, fmt.Errorf("-day: %v is not a whole number of -window %v windows", *day, *window))
	}

	ctx, stop := withSignalContext(context.Background())
	defer stop()

	hw, soft := tf.hardware, tf.allocs[0]
	base := tf.base(ctx)
	base.Testbed.Soft = soft
	base.Measure = *day
	base.Deadline = *deadline
	base.Obs = obs.Config{SLA: *slaS}

	cfg := experiment.ElasticSweepConfig{
		Run: base,
		Controller: adaptive.ElasticConfig{
			Interval: *interval,
			Budget:   *budget,
			MaxStep:  *step,
			Deadband: *deadband,
			Cooldown: *cooldown,
		},
		Policies:         policies,
		Traces:           traces,
		Window:           *window,
		GoodputThreshold: *slaS,
	}
	fail := func(err error) int { return exitErr(stderr, *tf.common.stateDir, err) }

	// SOFTMAX consults the MVA surrogate for marginal goodput; calibrate it
	// once from a generously provisioned closed-loop trial (not journaled:
	// it is cheap next to the day-long sweep trials).
	if hasPolicy(policies, adaptive.PolicySoftmax) {
		calib, cerr := testbed.ParseSoftAlloc(*calibSoft)
		if cerr != nil {
			return failUsage(fs, fmt.Errorf("-calib-soft: %w", cerr))
		}
		cal := base
		cal.Testbed.Soft, cal.Users, cal.Measure, cal.ObsDir = calib, *calibWL, 45*time.Second, ""
		fmt.Fprintf(stderr, "calibrating surrogate (%s, %d users)...\n", calib, *calibWL)
		res, err := experiment.Run(cal)
		if err != nil {
			return fail(err)
		}
		sur, err := search.Calibrate(res)
		if err != nil {
			return fail(fmt.Errorf("surrogate calibration: %w", err))
		}
		sla := *slaS
		cfg.Controller.Goodput = func(s testbed.SoftAlloc, users int) (float64, error) {
			p, perr := sur.Predict(s, users)
			if perr != nil {
				return 0, perr
			}
			return p.Goodput(sla), nil
		}
	}

	// The image records the surrogate, a closure, by presence only, so the
	// flags that calibrate it join the fingerprint.
	st, err := tf.common.openState(experiment.Fingerprint(base, "elastic",
		cfg.Fingerprint(), *calibSoft, fmt.Sprint(*calibWL)))
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	cfg.Run.State = st

	out, err := experiment.ElasticSweep(cfg)
	if err != nil {
		return fail(err)
	}

	units := *budget
	if units <= 0 {
		units = soft.Units(hw)
	}
	fmt.Fprintf(stdout, "elastic sweep %s %s over %v (budget %d units):\n", hw, soft, *day, units)
	for _, r := range out.Results {
		if r != nil {
			fmt.Fprintf(stdout, "  %s\n", r.Describe())
		}
	}
	for _, tr := range out.Traces {
		if best := out.Best(tr); best != nil {
			fmt.Fprintf(stdout, "best on %s: %s (%.4f goodput/unit)\n", tr, best.Policy, best.GoodputPerUnit)
		}
	}

	if *decisionsOn {
		for _, r := range out.Results {
			if r == nil || len(r.Decisions) == 0 {
				continue
			}
			fmt.Fprintf(stdout, "\ndecision log [%s on %s]:\n%s", r.Policy, r.Trace, r.DecisionLog)
		}
	}

	if err := writeOutput(stdout, "\nsummary csv", *csvPath, out.WriteCSV); err != nil {
		return fail(err)
	}
	if *tlPath != "" {
		for _, r := range out.Results {
			if r == nil {
				continue
			}
			path := fmt.Sprintf("%s-%s-%s.csv", *tlPath, strings.ToLower(string(r.Policy)), r.Trace)
			if err := writeOutput(stdout, "timeline csv", path, r.WriteTimelineCSV); err != nil {
				return fail(err)
			}
		}
	}
	return 0
}

// parsePolicies resolves the comma-separated policy list.
func parsePolicies(s string) ([]adaptive.Policy, error) {
	var out []adaptive.Policy
	for _, f := range strings.Split(s, ",") {
		p, err := adaptive.ParsePolicy(f)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func hasPolicy(ps []adaptive.Policy, want adaptive.Policy) bool {
	for _, p := range ps {
		if p == want {
			return true
		}
	}
	return false
}

// buildTraces materializes the named day-shaped traces.
func buildTraces(s string, low, high float64, day time.Duration) ([]experiment.ElasticTrace, error) {
	var out []experiment.ElasticTrace
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToLower(name)) {
		case "diurnal":
			out = append(out, experiment.ElasticTrace{Name: "diurnal",
				Spec: trace.Diurnal(low, high, day)})
		case "mmpp":
			// Bursty: alternate trough and peak with mean sojourns of 1/16
			// day, so a day sees ~8 bursts.
			out = append(out, experiment.ElasticTrace{Name: "mmpp",
				Spec: trace.MMPP(
					trace.MMPPState{Rate: low, Mean: day / 16},
					trace.MMPPState{Rate: high, Mean: day / 16})})
		case "flash":
			// A midday flash crowd: the peak multiplied 3x for 1/16 day.
			out = append(out, experiment.ElasticTrace{Name: "flash",
				Spec: trace.FlashCrowd(low, 3*high, day/2, day/16)})
		default:
			return nil, fmt.Errorf("-trace: unknown trace %q (want diurnal, mmpp, or flash)", name)
		}
	}
	return out, nil
}
