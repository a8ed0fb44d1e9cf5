package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/softres/ntier/internal/chaos"
	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/fault"
)

// runChaos is `ntier chaos`: it fuzzes the simulated deployment with
// randomized fault plans and judges every run against the conservation
// and recovery oracles (see internal/chaos). Failing plans are shrunk to
// minimal reproducers and can be written out as loadable JSON.
//
// Run a seeded campaign — 3 topology seeds × 20 plans each — with
// crash-safe journaling and minimized repros on disk:
//
//	ntier chaos -hw 1/2/1/2 -soft 400-15-6 -seeds 3 -plans 20 \
//	  -state-dir runs/chaos -repro repros/
//
// Replay a minimized reproducer:
//
//	ntier chaos -replay repros/seed0-plan7.json -hw 1/2/1/2 -soft 400-15-6
func runChaos(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("chaos", stderr)
	tf := trialFlags{
		hw:     fs.String("hw", "1/2/1/2", "hardware configuration #W/#A/#C/#D"),
		soft:   fs.String("soft", "400-15-6", "soft allocation Wt-At-Ac"),
		seed:   fs.Uint64("seed", 1, "base seed (trial s uses topology seed base+s)"),
		ramp:   fs.Duration("ramp", 5*time.Second, "ramp-up period (simulated)"),
		common: registerCommonFlags(fs),
	}
	var (
		seeds = fs.Int("seeds", 1, "topology seeds to fuzz")
		plans = fs.Int("plans", 20, "fault plans per seed")

		users    = fs.Int("wl", 150, "closed-loop workload (emulated users)")
		think    = fs.Duration("think", time.Second, "think-time mean")
		baseline = fs.Duration("baseline", 20*time.Second, "fault-free baseline window")
		grace    = fs.Duration("grace", 10*time.Second, "settle time before the recovery window")
		recovery = fs.Duration("recovery", 20*time.Second, "recovery measurement window")
		drain    = fs.Duration("drain", 2*time.Minute, "quiescence drain budget (simulated)")

		horizon   = fs.Duration("horizon", time.Minute, "fault horizon: all plans revert within it")
		minEvents = fs.Int("min-events", 1, "minimum events per plan")
		maxEvents = fs.Int("max-events", 6, "maximum events per plan")
		jitter    = fs.Float64("jitter", 0.2, "start-time jitter fraction in [0,1)")

		goodTol = fs.Float64("goodput-tol", 0.3, "allowed recovery goodput drop (fraction of baseline)")
		p95Fac  = fs.Float64("p95-factor", 2, "allowed recovery p95 inflation over baseline")

		shrink   = fs.Int("shrink", 64, "shrink budget (trials per failing plan; 0 = no shrinking)")
		reproDir = fs.String("repro", "", "write minimized repro plans as JSON into DIR")
		replay   = fs.String("replay", "", "replay one plan JSON file instead of fuzzing")
		plant    = fs.Int("plant-leak-deficit", 0, "plant a revert-deficit bug of N units (campaign self-validation; forces -jitter 0)")
		csvPath  = fs.String("csv", "", "write the per-trial verdict CSV to this file")
	)
	if code := tf.parse(fs, args); code != 0 {
		return code
	}
	if err := refuse(fs, "chaos trials record no observability snapshots", "obs"); err != nil {
		return failUsage(fs, err)
	}
	if *seeds <= 0 || *plans <= 0 {
		return failUsage(fs, fmt.Errorf("-seeds and -plans must be positive (got %d, %d)", *seeds, *plans))
	}
	if *jitter < 0 || *jitter >= 1 {
		return failUsage(fs, fmt.Errorf("-jitter: %g outside [0,1)", *jitter))
	}
	if *plant > 0 {
		*jitter = 0 // the planted revert is scheduled at the nominal end
	}

	ctx, stop := withSignalContext(context.Background())
	defer stop()
	trial := chaos.TrialConfig{
		Run:                tf.base(ctx),
		Baseline:           *baseline,
		Grace:              *grace,
		Recovery:           *recovery,
		DrainBudget:        *drain,
		GoodputTol:         *goodTol,
		P95Factor:          *p95Fac,
		LeakRestoreDeficit: *plant,
	}
	trial.Run.Testbed.Soft = tf.allocs[0]
	trial.Run.Users = *users
	trial.Run.ThinkMean = *think

	if *replay != "" {
		return runReplay(stdout, stderr, trial, *replay)
	}

	targets, err := chaos.Discover(trial.Run.Testbed)
	if err != nil {
		return failUsage(fs, err)
	}
	cfg := chaos.CampaignConfig{
		Trial: trial,
		Gen: chaos.GenConfig{
			Targets:    targets,
			Horizon:    *horizon,
			MinEvents:  *minEvents,
			MaxEvents:  *maxEvents,
			JitterFrac: *jitter,
		},
		BaseSeed:     *tf.seed,
		Seeds:        *seeds,
		PlansPerSeed: *plans,
		ShrinkBudget: *shrink,
	}

	// The campaign's fingerprint leaves the population out, as every
	// RunConfig image does; the state folds -wl in, as sweep's does.
	fail := func(err error) int { return exitErr(stderr, *tf.common.stateDir, err) }
	st, err := tf.common.openState(experiment.Fingerprint(trial.Run, "chaos", cfg.Fingerprint(), strconv.Itoa(*users)))
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	cfg.Trial.Run.State = st

	var mu sync.Mutex
	done := 0
	total := cfg.Seeds * cfg.PlansPerSeed
	cfg.OnVerdict = func(o chaos.Outcome, restored bool) {
		mu.Lock()
		defer mu.Unlock()
		done++
		tag := ""
		if restored {
			tag = " (journaled)"
		}
		fmt.Fprintf(stderr, "[%3d/%d] %-16s %-10s faults=%d%s\n", done, total, o.Key, verdictClass(o.Verdict), o.Verdict.Faults, tag)
	}

	fmt.Fprintf(stdout, "chaos campaign: hw=%s soft=%s seeds=%d plans=%d horizon=%v jitter=%g shrink=%d\n",
		tf.hardware, tf.allocs[0], cfg.Seeds, cfg.PlansPerSeed, *horizon, *jitter, cfg.ShrinkBudget)
	outcomes, err := chaos.RunCampaign(cfg)
	if err != nil {
		return fail(err)
	}

	failures := printVerdicts(stdout, outcomes)
	if err := writeOutput(stdout, "verdict CSV", *csvPath, func(w io.Writer) error { return writeVerdicts(w, outcomes) }); err != nil {
		return fail(err)
	}
	if *reproDir != "" && failures > 0 {
		n, err := writeRepros(*reproDir, outcomes)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%d minimized repro plan(s) written to %s\n", n, *reproDir)
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// verdictClass names a verdict's failure class, "pass" for a clean trial.
func verdictClass(v *chaos.Verdict) string {
	if v.Class == "" {
		return "pass"
	}
	return v.Class
}

// printVerdicts prints the verdict table and summary, returning the failure count.
func printVerdicts(w io.Writer, outcomes []chaos.Outcome) int {
	fmt.Fprintf(w, "\n%-16s %-10s %7s %10s %10s %10s %10s %7s\n",
		"trial", "class", "faults", "base gp/s", "rec gp/s", "base p95", "rec p95", "shrunk")
	byClass := map[string]int{}
	failures := 0
	for _, o := range outcomes {
		v := o.Verdict
		class := verdictClass(v)
		byClass[class]++
		if v.Failed() {
			failures++
		}
		shrunk := "-"
		if o.Shrunk != nil {
			shrunk = strconv.Itoa(len(o.Shrunk.Events))
		}
		fmt.Fprintf(w, "%-16s %-10s %7d %10.1f %10.1f %10v %10v %7s\n",
			o.Key, class, v.Faults, v.Baseline.Goodput, v.Recovery.Goodput,
			v.Baseline.P95.Round(time.Millisecond), v.Recovery.P95.Round(time.Millisecond), shrunk)
		for _, viol := range v.Violations {
			fmt.Fprintf(w, "    %s\n", viol)
		}
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "\n%d trials:", len(outcomes))
	for _, c := range classes {
		fmt.Fprintf(w, " %s=%d", c, byClass[c])
	}
	fmt.Fprintln(w)
	return failures
}

// writeVerdicts writes the verdict CSV, one row per trial.
func writeVerdicts(w io.Writer, outcomes []chaos.Outcome) error {
	cw := csv.NewWriter(w)
	header := []string{
		"trial", "topo_seed", "plan_seed", "events", "class", "drained", "faults",
		"baseline_goodput", "recovery_goodput", "baseline_p95_ms", "recovery_p95_ms",
		"violations", "shrunk_events", "shrink_trials",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, o := range outcomes {
		v := o.Verdict
		shrunk := ""
		if o.Shrunk != nil {
			shrunk = strconv.Itoa(len(o.Shrunk.Events))
		}
		row := []string{
			o.Key,
			strconv.FormatUint(o.TopoSeed, 10),
			strconv.FormatUint(o.PlanSeed, 10),
			strconv.Itoa(len(o.Plan.Events)),
			verdictClass(v),
			strconv.FormatBool(v.Drained),
			strconv.Itoa(v.Faults),
			fmt.Sprintf("%.3f", v.Baseline.Goodput),
			fmt.Sprintf("%.3f", v.Recovery.Goodput),
			fmt.Sprintf("%.3f", float64(v.Baseline.P95)/float64(time.Millisecond)),
			fmt.Sprintf("%.3f", float64(v.Recovery.P95)/float64(time.Millisecond)),
			strconv.Itoa(len(v.Violations)),
			shrunk,
			strconv.Itoa(o.ShrinkTrials),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeRepros writes each failing trial's minimized plan as JSON named
// after its trial key, loadable with -replay (or fault.ParsePlan).
func writeRepros(dir string, outcomes []chaos.Outcome) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	for _, o := range outcomes {
		if o.Shrunk == nil {
			continue
		}
		data, err := json.MarshalIndent(o.Shrunk, "", "  ")
		if err != nil {
			return n, err
		}
		si, pi := 0, 0
		fmt.Sscanf(o.Key, "seed=%d/plan=%d", &si, &pi)
		path := filepath.Join(dir, fmt.Sprintf("seed%d-plan%d.json", si, pi))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// runReplay loads one plan file and runs a single judged trial.
func runReplay(stdout, stderr io.Writer, trial chaos.TrialConfig, path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return exitErr(stderr, "", err)
	}
	plan, err := fault.ParsePlan(data)
	if err != nil {
		return exitErr(stderr, "", fmt.Errorf("%s: %w", path, err))
	}
	v, err := chaos.RunTrial(trial, plan)
	if err != nil {
		return exitErr(stderr, "", fmt.Errorf("%s: %w", path, err))
	}
	fmt.Fprintf(stdout, "replay %s (%d events, seed %d): %s\n", path, len(plan.Events), trial.Run.Testbed.Seed, verdictClass(v))
	fmt.Fprintf(stdout, "  baseline: %d pages, %.1f/s, p95 %v\n",
		v.Baseline.Completions, v.Baseline.Goodput, v.Baseline.P95.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  recovery: %d pages, %.1f/s, p95 %v\n",
		v.Recovery.Completions, v.Recovery.Goodput, v.Recovery.P95.Round(time.Millisecond))
	for _, viol := range v.Violations {
		fmt.Fprintf(stdout, "  violation: %s\n", viol)
	}
	if v.Failed() {
		return 1
	}
	return 0
}
