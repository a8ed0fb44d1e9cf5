package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/search"
	"github.com/softres/ntier/internal/sla"
)

// runSearch is `ntier search`: the surrogate-guided budgeted optimizer over
// the soft-resource configuration space. It calibrates an MVA surrogate
// from one trial, pre-ranks the candidate grid analytically, spends the
// trial budget by successive halving over the workload ladder (with
// obs-guided mutation of the survivors), and prints the best allocation
// plus the Pareto frontier of goodput versus total allocated soft
// resources per SLA threshold.
//
// Find a good allocation for 1/2/1/2 with 6 simulation trials:
//
//	ntier search -hw 1/2/1/2 -soft 400-30-20 -threads 4,8,15,30 -conns 2,6,12 -wl 4000,6000 -budget 6
//
// Crash-safe campaign with CSV outputs:
//
//	ntier search -hw 1/2/1/2 -budget 12 -state-dir runs/search -csv pareto.csv -points-csv points.csv
//	ntier search -hw 1/2/1/2 -budget 12 -state-dir runs/search -resume
func runSearch(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("search", stderr)
	tf := trialFlags{
		hw:      fs.String("hw", "1/2/1/2", "hardware configuration #W/#A/#C/#D"),
		soft:    fs.String("soft", "400-30-20", "calibration allocation Wt-At-Ac (run generously provisioned)"),
		seed:    fs.Uint64("seed", 1, "random seed"),
		ramp:    fs.Duration("ramp", 30*time.Second, "ramp-up period per trial (simulated)"),
		measure: fs.Duration("measure", 45*time.Second, "measured runtime per trial (simulated)"),
		common:  registerCommonFlags(fs),
	}
	var (
		webS    = fs.String("web", "", "candidate Apache worker counts (default: the calibration allocation's)")
		thrS    = fs.String("threads", "4,8,15,30", "candidate Tomcat thread-pool sizes")
		connS   = fs.String("conns", "2,6,12", "candidate DB connection-pool sizes")
		wlS     = fs.String("wl", "4000,6000", "workload ladder: list 4000,6000 or range lo:hi:step")
		budget  = fs.Int("budget", 12, "simulation-trial budget (includes the calibration trial)")
		slaS    = fs.Duration("sla", time.Second, "SLA threshold the search optimizes goodput for")
		eta     = fs.Int("eta", 2, "successive-halving factor: each rung keeps ceil(n/eta) survivors")
		keep    = fs.Int("keep", 0, "candidates admitted to rung 0 (0 = as many as the budget affords)")
		quiet   = fs.Bool("q", false, "suppress the live decision log")
		csvPath = fs.String("csv", "", "write the Pareto frontier CSV to this file")
		ptsPath = fs.String("points-csv", "", "write every measured trial as CSV to this file")
	)
	if code := tf.parse(fs, args); code != 0 {
		return code
	}
	workloads, err := parseWorkloads(*wlS)
	if err != nil {
		return failUsage(fs, err)
	}
	if *budget < 2 {
		return failUsage(fs, fmt.Errorf("-budget %d leaves no trials after the calibration trial", *budget))
	}
	webAxis := []int{tf.allocs[0].WebThreads}
	if *webS != "" {
		if webAxis, err = parseInts(*webS); err != nil {
			return failUsage(fs, fmt.Errorf("-web: %w", err))
		}
	}
	threadAxis, err := parseInts(*thrS)
	if err != nil {
		return failUsage(fs, fmt.Errorf("-threads: %w", err))
	}
	connAxis, err := parseInts(*connS)
	if err != nil {
		return failUsage(fs, fmt.Errorf("-conns: %w", err))
	}

	// The goodput thresholds reported in the Pareto output are the paper's
	// standard SLAs; an unconventional -sla joins them.
	thresholds := append([]time.Duration(nil), sla.StandardThresholds...)
	slaKnown := false
	for _, th := range thresholds {
		if th == *slaS {
			slaKnown = true
		}
	}
	if !slaKnown {
		thresholds = append(thresholds, *slaS)
	}

	ctx, stop := withSignalContext(context.Background())
	defer stop()
	fail := func(err error) int { return exitErr(stderr, *tf.common.stateDir, err) }

	base := tf.base(ctx)
	base.Testbed.Soft = tf.allocs[0]
	base.Thresholds = thresholds

	st, err := tf.common.openState(experiment.Fingerprint(base, "search",
		*webS, *thrS, *connS, *wlS, fmt.Sprint(*budget), slaS.String(),
		fmt.Sprint(*eta), fmt.Sprint(*keep)))
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	base.State = st

	opts := search.Options{
		Base:       base,
		WebThreads: webAxis,
		AppThreads: threadAxis,
		AppConns:   connAxis,
		Workloads:  workloads,
		SLA:        *slaS,
		Budget:     *budget,
		Eta:        *eta,
		Keep:       *keep,
	}
	if !*quiet {
		opts.Log = stderr
	}

	out, err := search.Run(opts)
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "best allocation %s: goodput(%v) %.1f req/s at workload %d\n",
		out.Best, out.SLA, out.BestGoodput, out.BestWorkload)
	fmt.Fprintf(stdout, "budget: %d trials run (%d restored from journal, %d cache hits)\n\n",
		out.Trials, out.Restored, out.Cached)
	fmt.Fprint(stdout, out.Table().String())

	if err := writeOutput(stdout, "\npareto frontier", *csvPath, out.WriteCSV); err != nil {
		return fail(err)
	}
	if err := writeOutput(stdout, "measured points", *ptsPath, out.WritePointsCSV); err != nil {
		return fail(err)
	}
	return 0
}
