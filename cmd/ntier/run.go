package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/trace"
)

// runTrial is `ntier run`: a single measured experiment against a simulated
// deployment, printing throughput, goodput per SLA threshold and
// per-server monitoring — the equivalent of one paper trial.
//
//	ntier run -hw 1/2/1/2 -soft 400-15-6 -wl 6000
//	ntier run -hw 1/4/1/4 -soft 400-200-200 -wl 7800 -mix rw -measure 120s
func runTrial(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("run", stderr)
	tf := trialFlags{
		hw:      fs.String("hw", "1/2/1/2", "hardware configuration #W/#A/#C/#D"),
		soft:    fs.String("soft", "400-15-6", "soft allocation Wt-At-Ac (Apache workers, Tomcat threads, DB conns)"),
		seed:    fs.Uint64("seed", 1, "random seed"),
		ramp:    fs.Duration("ramp", 40*time.Second, "ramp-up period (simulated)"),
		measure: fs.Duration("measure", 60*time.Second, "measured runtime (simulated)"),
		common:  registerCommonFlags(fs),
	}
	var (
		users  = fs.Int("wl", 6000, "workload (emulated users)")
		mix    = fs.String("mix", "browse", "workload mix: browse or rw")
		noGC   = fs.Bool("no-gc", false, "ablation: disable the JVM GC model")
		noFin  = fs.Bool("no-finwait", false, "ablation: disable Apache lingering close")
		traceN = fs.Uint64("trace", 0, "sample one request in N for phase tracing (0 = off)")
		diag   = fs.Bool("diagnose", false, "classify the bottleneck pattern from windowed utilization")
	)
	if code := tf.parse(fs, args); code != 0 {
		return code
	}
	if *users <= 0 {
		return failUsage(fs, fmt.Errorf("-wl: workload must be positive, got %d", *users))
	}
	ctx, stop := withSignalContext(context.Background())
	defer stop()
	fail := func(err error) int { return exitErr(stderr, *tf.common.stateDir, err) }

	cfg := tf.base(ctx)
	cfg.Testbed.Soft = tf.allocs[0]
	cfg.Testbed.DisableGC = *noGC
	cfg.Testbed.DisableFinWait = *noFin
	cfg.Users = *users
	cfg.TraceEvery = *traceN
	cfg.WindowUtil = *diag
	switch *mix {
	case "browse":
		cfg.Mix = rubbos.BrowseOnlyMix()
	case "rw":
		cfg.Mix = rubbos.ReadWriteMix()
	default:
		return failUsage(fs, fmt.Errorf("-mix: unknown mix %q (want browse or rw)", *mix))
	}

	// The single trial is a one-point workload sweep, so -state-dir
	// journals it like any campaign: re-running the same configuration
	// replays the recorded result, and -wl can vary across invocations of
	// one state directory (the state fingerprint excludes the workload).
	st, err := tf.common.openState(experiment.Fingerprint(cfg, "run"))
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	cfg.State = st
	curve, err := experiment.WorkloadSweep(cfg, []int{*users})
	if err == nil {
		err = curve.Errs[0]
	}
	if err != nil {
		return fail(err)
	}
	res := curve.Results[0]
	fmt.Fprintln(stdout, res.Describe())
	fmt.Fprintln(stdout)

	tbl := &experiment.Table{
		Title:   "per-server monitoring",
		Headers: []string{"server", "cpu", "gc", "pool", "util", "sat", "rtt", "tp", "jobs"},
	}
	for _, s := range res.Servers() {
		pool, util, sat := "-", "-", "-"
		if len(s.Pools) > 0 {
			pool = fmt.Sprintf("%d", s.Pools[0].Capacity)
			util = fmt.Sprintf("%.0f%%", s.Pools[0].Utilization*100)
			sat = fmt.Sprintf("%.0f%%", s.Pools[0].Saturated*100)
		}
		gc := "-"
		if s.GC.Name != "" {
			gc = fmt.Sprintf("%.1f%%", s.GC.GCFraction*100)
		}
		tbl.AddRow(s.Name,
			fmt.Sprintf("%.0f%%", s.CPUUtil*100), gc, pool, util, sat,
			s.RTT.Round(100*time.Microsecond).String(),
			fmt.Sprintf("%.1f", s.TP),
			fmt.Sprintf("%.1f", s.Jobs))
	}
	fmt.Fprint(stdout, tbl.String())

	if *traceN > 0 && len(res.Traces) > 0 {
		fmt.Fprintln(stdout, "\nper-request phase breakdown (sampled traces):")
		fmt.Fprint(stdout, trace.FormatBreakdown(trace.Breakdown(res.Traces)))
		fmt.Fprintln(stdout, "\nlast sampled request:")
		fmt.Fprint(stdout, res.Traces[len(res.Traces)-1].String())
	}
	if *diag {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, obs.ClassifyWindows(res.UtilSeries).String())
	}
	return 0
}
