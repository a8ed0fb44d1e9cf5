package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
)

// runSweep is `ntier sweep`: workload sweeps and soft-allocation sweeps,
// printing the goodput series behind the paper's figures.
//
// Compare two allocations across a workload range (Fig. 2 / Fig. 3):
//
//	ntier sweep -hw 1/2/1/2 -soft 400-6-6,400-15-6 -wl 5000:6800:400
//
// Sweep a pool size (Fig. 4 / 5 / 6 / 10):
//
//	ntier sweep -hw 1/2/1/2 -soft 400-15-20 -vary threads -sizes 6,10,20,200 -wl 4000:6800:400
//
// Overload sweep (open-system arrivals; offered load can exceed capacity):
//
//	ntier sweep -hw 1/2/1/2 -soft 400-15-6 -rate 100,200,400,800 -deadline 2s -admission
func runSweep(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("sweep", stderr)
	tf := trialFlags{
		hw:        fs.String("hw", "1/2/1/2", "hardware configuration #W/#A/#C/#D"),
		soft:      fs.String("soft", "400-15-6", "comma-separated soft allocations Wt-At-Ac"),
		multiSoft: true,
		seed:      fs.Uint64("seed", 1, "random seed"),
		ramp:      fs.Duration("ramp", 40*time.Second, "ramp-up period (simulated)"),
		measure:   fs.Duration("measure", 60*time.Second, "measured runtime (simulated)"),
		common:    registerCommonFlags(fs),
	}
	var (
		wlS    = fs.String("wl", "5000:6800:400", "workloads: list 5000,5600 or range lo:hi:step")
		vary   = fs.String("vary", "", "pool to sweep: threads, conns, or web")
		sizesS = fs.String("sizes", "", "comma-separated pool sizes for -vary")
		thS    = fs.Duration("sla", 2*time.Second, "SLA threshold for the goodput table")
		noGC   = fs.Bool("no-gc", false, "ablation: disable the JVM GC model")
		noFin  = fs.Bool("no-finwait", false, "ablation: disable Apache lingering close")

		rateS     = fs.String("rate", "", "overload mode: comma-separated offered arrival rates (req/s); replaces the closed-loop -wl axis and ignores -vary")
		deadline  = fs.Duration("deadline", 0, "end-to-end request deadline for overload mode (0 = none)")
		admission = fs.Bool("admission", false, "arm overload protection: resilience layer + adaptive admission control")
		csvPath   = fs.String("csv", "", "write each curve as CSV to this file (per allocation)")
	)
	if code := tf.parse(fs, args); code != 0 {
		return code
	}
	users, err := parseWorkloads(*wlS)
	if err != nil {
		return failUsage(fs, err)
	}

	ctx, stop := withSignalContext(context.Background())
	defer stop()
	fail := func(err error) int { return exitErr(stderr, *tf.common.stateDir, err) }

	base := tf.base(ctx)
	base.Testbed.DisableGC = *noGC
	base.Testbed.DisableFinWait = *noFin
	base.Obs = obs.Config{SLA: *thS}
	if *admission {
		base.Testbed.Resilience = experiment.OverloadProtection()
	}

	st, err := tf.common.openState(experiment.Fingerprint(base, "sweep",
		*tf.soft, *wlS, *vary, *sizesS, *rateS, deadline.String()))
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	base.State = st

	if *rateS != "" {
		rates, err := parseFloats(*rateS)
		if err != nil || len(rates) == 0 {
			return failUsage(fs, fmt.Errorf("-rate: need a comma-separated rate list (got %q)", *rateS))
		}
		return runOverload(stdout, fail, base, tf.allocs, rates, *deadline, *thS, *csvPath)
	}

	var curves []*experiment.Curve
	if *vary != "" {
		base.Testbed.Soft = tf.allocs[0]
		sizes, err := parseInts(*sizesS)
		if err != nil || len(sizes) == 0 {
			return failUsage(fs, fmt.Errorf("-vary needs -sizes (got %q)", *sizesS))
		}
		var fn func(testbed.SoftAlloc, int) testbed.SoftAlloc
		switch *vary {
		case "threads":
			fn = experiment.VaryAppThreads
		case "conns":
			fn = experiment.VaryAppConns
		case "web":
			fn = experiment.VaryWebThreads
		default:
			return failUsage(fs, fmt.Errorf("-vary: unknown pool %q (want threads, conns, or web)", *vary))
		}
		points, err := experiment.AllocSweep(base, users, sizes, fn)
		if err != nil {
			return fail(err)
		}
		for _, p := range points {
			curves = append(curves, p.Curve)
		}
		fmt.Fprintf(stdout, "max throughput per allocation (%s sweep):\n", *vary)
		for _, p := range points {
			fmt.Fprintf(stdout, "  %-14s maxTP %8.1f  maxGoodput(%v) %8.1f\n",
				p.Soft, p.Curve.MaxThroughput(), *thS, p.Curve.MaxGoodput(*thS))
		}
		fmt.Fprintln(stdout)
	} else {
		for _, soft := range tf.allocs {
			cfg := base
			cfg.Testbed.Soft = soft
			curve, err := experiment.WorkloadSweep(cfg, users)
			if err != nil {
				return fail(err)
			}
			curves = append(curves, curve)
		}
	}

	title := fmt.Sprintf("goodput [req/s] within %v", *thS)
	fmt.Fprint(stdout, experiment.CurveTable(title, *thS, curves...).String())
	printCountTables(stdout, curves)
	for _, c := range curves {
		if err := writeCurveCSV(stdout, *csvPath, c.Label, len(curves) > 1, c.WriteCSV); err != nil {
			return fail(err)
		}
	}
	return 0
}

// runOverload drives the open-system goodput-vs-offered-load sweep for each
// allocation and prints the saturation table.
func runOverload(stdout io.Writer, fail func(error) int, base experiment.RunConfig, allocs []testbed.SoftAlloc, rates []float64, deadline, th time.Duration, csvPath string) int {
	var curves []*experiment.OverloadCurve
	for _, soft := range allocs {
		cfg := base
		cfg.Testbed.Soft = soft
		cfg.Deadline = deadline
		curve, err := experiment.OverloadSweep(cfg, rates)
		if err != nil {
			return fail(err)
		}
		curves = append(curves, curve)
	}

	fmt.Fprintln(stdout, "peak goodput per allocation (offered-load sweep):")
	for _, c := range curves {
		fmt.Fprintf(stdout, "  %-24s peak goodput(%v) %8.1f req/s\n", c.Label, th, c.PeakGoodput(th))
	}
	fmt.Fprintln(stdout)

	t := &experiment.Table{Title: fmt.Sprintf("goodput [req/s] within %v vs offered load", th)}
	t.Headers = []string{"rate"}
	for _, c := range curves {
		t.Headers = append(t.Headers, c.Label, "shed", "issued", "in flight")
	}
	for i, rate := range rates {
		row := []string{fmt.Sprintf("%g", rate)}
		for _, c := range curves {
			r := c.Results[i]
			if r == nil {
				row = append(row, "ERR", "-", "-", "-")
				continue
			}
			row = append(row,
				fmt.Sprintf("%.1f", r.Goodput(th)),
				fmt.Sprintf("%d", r.Shed),
				fmt.Sprintf("%d", r.Requests.Issued),
				fmt.Sprintf("%d", r.Requests.InFlight))
		}
		t.AddRow(row...)
	}
	fmt.Fprint(stdout, t.String())

	for _, c := range curves {
		if err := writeCurveCSV(stdout, csvPath, c.Label, len(curves) > 1, c.WriteCSV); err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeCurveCSV writes one curve's CSV at the paper's standard thresholds
// to its per-curve path and announces it; an empty -csv writes nothing.
func writeCurveCSV(stdout io.Writer, csvPath, label string, many bool, write func(io.Writer, []time.Duration) error) error {
	if csvPath == "" {
		return nil
	}
	return writeOutput(stdout, "csv", curveCSVPath(csvPath, label, many),
		func(w io.Writer) error { return write(w, sla.StandardThresholds) })
}

// printCountTables surfaces the non-goodput outcomes — error responses,
// abandoned sessions, shed requests — whenever a sweep saw any, so they
// never hide behind the goodput table, and the workload's buckets at the
// horizon: the requests issued since the trial began and those still in
// flight.
func printCountTables(stdout io.Writer, curves []*experiment.Curve) {
	counts := []struct {
		name string
		get  func(*experiment.Result) uint64
	}{
		{"error/degraded responses", func(r *experiment.Result) uint64 { return r.Errors }},
		{"abandoned sessions (patience exceeded)", func(r *experiment.Result) uint64 { return r.Abandoned }},
		{"shed requests (admission + deadline)", func(r *experiment.Result) uint64 { return r.Shed }},
		{"requests issued (ramp + measure)", func(r *experiment.Result) uint64 { return r.Requests.Issued }},
		{"requests in flight at the horizon", func(r *experiment.Result) uint64 { return uint64(r.Requests.InFlight) }},
	}
	for _, ct := range counts {
		any := false
		for _, c := range curves {
			for _, r := range c.Results {
				if r != nil && ct.get(r) > 0 {
					any = true
				}
			}
		}
		if any {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, experiment.CurveCountTable(ct.name, ct.get, curves...).String())
		}
	}
}
