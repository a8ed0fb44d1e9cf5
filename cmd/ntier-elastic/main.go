// Command ntier-elastic evaluates live soft-resource reallocation policies
// against the static baseline over day-shaped traffic traces, scoring each
// on goodput per allocated soft-resource-unit.
//
// Compare TOP_JOB against the static allocation on a compressed diurnal day:
//
//	ntier-elastic -hw 1/2/1/2 -soft 60-4-4 -policy STATIC,TOP_JOB \
//	  -trace diurnal -day 8m -low 40 -high 120
//
// SOFTMAX needs the MVA surrogate; the command calibrates it from one
// closed-loop trial on a generous allocation before the sweep:
//
//	ntier-elastic -hw 1/2/1/2 -soft 60-4-4 -policy SOFTMAX -calib-soft 400-30-20
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	ntier "github.com/softres/ntier"
	"github.com/softres/ntier/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ntier-elastic", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		hwS      = fs.String("hw", "1/2/1/2", "hardware configuration #W/#A/#C/#D")
		softS    = fs.String("soft", "60-4-4", "starting (and STATIC baseline) allocation Wt-At-Ac")
		policyS  = fs.String("policy", "STATIC,TOP_JOB", "comma-separated policies: STATIC, UNIFORM, TOP_JOB, SOFTMAX")
		traceS   = fs.String("trace", "diurnal", "comma-separated traces: diurnal, mmpp, flash")
		day      = fs.Duration("day", 8*time.Minute, "trace day length (simulated; the measured window)")
		low      = fs.Float64("low", 40, "trough arrival rate (req/s)")
		high     = fs.Float64("high", 120, "peak arrival rate (req/s)")
		seed     = fs.Uint64("seed", 1, "random seed")
		ramp     = fs.Duration("ramp", 40*time.Second, "ramp-up period (simulated)")
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
	common := cli.RegisterCommonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	hw, err := cli.ParseHardware(*hwS)
	if err != nil {
		return cli.Fail(fs, err)
	}
	soft, err := cli.ParseSoftAlloc(*softS)
	if err != nil {
		return cli.Fail(fs, err)
	}
	policies, err := parsePolicies(*policyS)
	if err != nil {
		return cli.Fail(fs, fmt.Errorf("-policy: %w", err))
	}
	traces, err := buildTraces(*traceS, *low, *high, *day)
	if err != nil {
		return cli.Fail(fs, err)
	}
	if err := common.Validate(); err != nil {
		return cli.Fail(fs, err)
	}

	ctx, stop := cli.WithSignalContext(context.Background())
	defer stop()

	base := ntier.RunConfig{
		Testbed:  ntier.TestbedOptions{Hardware: hw, Soft: soft, Seed: *seed},
		RampUp:   *ramp,
		Measure:  *day,
		Deadline: *deadline,
		Ctx:      ctx,
		Obs:      ntier.ObsConfig{SLA: *slaS},
	}
	common.Apply(&base)

	cfg := ntier.ElasticSweepConfig{
		Run: base,
		Controller: ntier.ElasticConfig{
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

	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		if hint := cli.ResumeHint(*common.StateDir); hint != "" && cli.ExitCode(err) == cli.ExitInterrupted {
			fmt.Fprintln(stderr, hint)
		}
		return cli.ExitCode(err)
	}

	// SOFTMAX consults the MVA surrogate for marginal goodput; calibrate it
	// once from a generously provisioned closed-loop trial (not journaled:
	// it is cheap next to the day-long sweep trials).
	if hasPolicy(policies, ntier.ElasticSoftmax) {
		calib, cerr := ntier.ParseSoftAlloc(*calibSoft)
		if cerr != nil {
			return cli.Fail(fs, fmt.Errorf("-calib-soft: %w", cerr))
		}
		ccfg := base
		ccfg.Testbed.Soft = calib
		ccfg.Measure = 45 * time.Second
		ccfg.Users = *calibWL
		ccfg.ObsDir = ""
		fmt.Fprintf(stderr, "calibrating surrogate (%s, %d users)...\n", calib, *calibWL)
		res, rerr := ntier.Run(ccfg)
		if rerr != nil {
			return fail(rerr)
		}
		sur, serr := ntier.CalibrateSurrogate(res)
		if serr != nil {
			return fail(fmt.Errorf("surrogate calibration: %w", serr))
		}
		sla := *slaS
		cfg.Controller.Goodput = func(s ntier.SoftAlloc, users int) (float64, error) {
			p, perr := sur.Predict(s, users)
			if perr != nil {
				return 0, perr
			}
			return p.Goodput(sla), nil
		}
	}

	closeState, err := common.OpenState(&cfg.Run, ntier.Fingerprint(base, "ntier-elastic",
		*policyS, *traceS, fmt.Sprint(*low), fmt.Sprint(*high), day.String(),
		interval.String(), fmt.Sprint(*budget), fmt.Sprint(*step),
		fmt.Sprint(*deadband), cooldown.String(), window.String(), slaS.String()))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if closeState != nil {
		defer closeState()
	}

	out, err := ntier.ElasticSweep(cfg)
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "elastic sweep %s %s over %v (budget %d units):\n",
		hw, soft, *day, unitsOrDefault(*budget, hw, soft))
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

	if *csvPath != "" {
		if err := writeFile(*csvPath, out.WriteCSV); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "\nsummary csv written to %s\n", *csvPath)
	}
	if *tlPath != "" {
		for _, r := range out.Results {
			if r == nil {
				continue
			}
			path := fmt.Sprintf("%s-%s-%s.csv", *tlPath, strings.ToLower(string(r.Policy)), r.Trace)
			if err := writeFile(path, r.WriteTimelineCSV); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "timeline csv written to %s\n", path)
		}
	}
	return 0
}

// parsePolicies resolves the comma-separated policy list.
func parsePolicies(s string) ([]ntier.ElasticPolicy, error) {
	var out []ntier.ElasticPolicy
	for _, f := range strings.Split(s, ",") {
		p, err := ntier.ParseElasticPolicy(f)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func hasPolicy(ps []ntier.ElasticPolicy, want ntier.ElasticPolicy) bool {
	for _, p := range ps {
		if p == want {
			return true
		}
	}
	return false
}

// buildTraces materializes the named day-shaped traces.
func buildTraces(s string, low, high float64, day time.Duration) ([]ntier.ElasticTrace, error) {
	var out []ntier.ElasticTrace
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToLower(name)) {
		case "diurnal":
			out = append(out, ntier.ElasticTrace{Name: "diurnal",
				Spec: ntier.DiurnalArrivals(low, high, day)})
		case "mmpp":
			// Bursty: alternate trough and peak with mean sojourns of 1/16
			// day, so a day sees ~8 bursts.
			out = append(out, ntier.ElasticTrace{Name: "mmpp",
				Spec: ntier.MMPPArrivals(
					ntier.MMPPState{Rate: low, Mean: day / 16},
					ntier.MMPPState{Rate: high, Mean: day / 16})})
		case "flash":
			// A midday flash crowd: the peak multiplied 3x for 1/16 day.
			out = append(out, ntier.ElasticTrace{Name: "flash",
				Spec: ntier.FlashCrowdArrivals(low, 3*high, day/2, day/16)})
		default:
			return nil, fmt.Errorf("-trace: unknown trace %q (want diurnal, mmpp, or flash)", name)
		}
	}
	return out, nil
}

// unitsOrDefault reports the effective budget for the banner line.
func unitsOrDefault(budget int, hw ntier.Hardware, soft ntier.SoftAlloc) int {
	if budget > 0 {
		return budget
	}
	return ntier.SearchTotalUnits(hw, soft)
}

// writeFile streams one CSV emitter into path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
