package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/softres/ntier/internal/core"
	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/testbed"
)

// runTune is `ntier tune`: the paper's soft-resource allocation algorithm
// (Algorithm 1) against a hardware configuration, printing the Table-I
// style report; -validate additionally sweeps the recommended pool to show
// the Fig. 10 validation curve.
//
//	ntier tune -hw 1/2/1/2
//	ntier tune -hw 1/4/1/4 -validate
//	ntier tune -hw 1/4/1/4 -state-dir runs/tune-1412    # crash-safe
func runTune(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("tune", stderr)
	tf := trialFlags{
		hw:      fs.String("hw", "1/2/1/2", "hardware configuration #W/#A/#C/#D"),
		seed:    fs.Uint64("seed", 1, "random seed"),
		ramp:    fs.Duration("ramp", 30*time.Second, "ramp-up period per trial (simulated)"),
		measure: fs.Duration("measure", 45*time.Second, "measured runtime per trial (simulated)"),
		common:  registerCommonFlags(fs),
	}
	var (
		soft0    = fs.String("soft0", "400-15-20", "initial soft allocation S0")
		step     = fs.Int("step", 1000, "coarse workload step")
		small    = fs.Int("smallstep", 400, "fine workload step")
		validate = fs.Bool("validate", false, "sweep the recommended pool size (Fig. 10)")
		quiet    = fs.Bool("q", false, "suppress progress logging")
	)
	if code := tf.parse(fs, args); code != 0 {
		return code
	}
	soft, err := testbed.ParseSoftAlloc(*soft0)
	if err != nil {
		return failUsage(fs, fmt.Errorf("-soft0: %w", err))
	}

	ctx, stop := withSignalContext(context.Background())
	defer stop()
	fail := func(err error) int { return exitErr(stderr, *tf.common.stateDir, err) }

	cfg := core.Config{Base: tf.base(ctx), Step: *step, SmallStep: *small}
	cfg.Base.Testbed.Soft = soft
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, "  "+format+"\n", args...)
		}
	}

	st, err := tf.common.openState(experiment.Fingerprint(cfg.Base, "tune",
		fmt.Sprint(*step), fmt.Sprint(*small), fmt.Sprint(*validate)))
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	cfg.Base.State = st

	rep, err := core.Tune(cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, rep.String())

	if !*validate {
		return 0
	}
	fmt.Fprintln(stdout, "\nValidation sweep (Fig. 10): max throughput vs pool size")
	base := cfg.Base
	base.Testbed.Soft = rep.ReservedSoft
	ax, what := testbed.AppThreads, "thread pool per Tomcat"
	if rep.Critical.Tier == "cjdbc" {
		// Control C-JDBC threads through the Tomcat DB connection pool.
		ax, what = testbed.AppConns, "DB conn pool per Tomcat"
	}
	rec := rep.Recommended.Get(ax)
	var sizes []int
	for _, s := range []int{rec / 4, rec / 2, rec - 2, rec, rec + 2, rec * 2, rec * 6} {
		if s >= 1 && (len(sizes) == 0 || s > sizes[len(sizes)-1]) {
			sizes = append(sizes, s)
		}
	}
	users := []int{rep.SaturationWL - *small, rep.SaturationWL, rep.SaturationWL + *small}
	points, err := experiment.AllocSweep(base, users, sizes, ax)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%-10s %12s\n", what, "max TP [req/s]")
	for _, p := range points {
		size := p.Soft.Get(ax)
		marker := ""
		if size == rec {
			marker = "  <- recommended"
		}
		fmt.Fprintf(stdout, "%-10d %12.1f%s\n", size, p.Curve.MaxThroughput(), marker)
	}
	return 0
}
