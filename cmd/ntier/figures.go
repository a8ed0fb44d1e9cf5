package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/softres/ntier/internal/core"
	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
)

type genFunc func(g *generator) (string, error)

// generator carries what every figure shares: the trial protocol, the seed
// and the execution-control knobs, with no hardware or allocation.
type generator struct {
	run experiment.RunConfig
}

func (g *generator) base(hw, soft string) experiment.RunConfig {
	h, err := testbed.ParseHardware(hw)
	if err != nil {
		log.Fatal(err)
	}
	s, err := testbed.ParseSoftAlloc(soft)
	if err != nil {
		log.Fatal(err)
	}
	cfg := g.run
	cfg.Testbed.Hardware, cfg.Testbed.Soft = h, s
	return cfg
}

// curvesOf collects the curves of an allocation sweep, failing on the
// first per-trial error: callers dereference individual sweep points.
func curvesOf(points []experiment.AllocPoint) ([]*experiment.Curve, error) {
	var curves []*experiment.Curve
	for _, p := range points {
		if err := p.Curve.Err(); err != nil {
			return nil, fmt.Errorf("alloc %s: %w", p.Soft, err)
		}
		curves = append(curves, p.Curve)
	}
	return curves, nil
}

func span(lo, hi, step int) []int {
	var out []int
	for n := lo; n <= hi; n += step {
		out = append(out, n)
	}
	return out
}

var registry = map[string]genFunc{
	"fig2":     fig2,
	"fig3":     fig3,
	"fig4":     fig4,
	"fig5":     fig5,
	"fig6":     fig6,
	"fig7":     fig7,
	"fig8":     fig8,
	"fig10":    fig10,
	"table1":   table1,
	"ablation": ablations,
}

// validNames returns the registry's names, sorted.
func validNames() []string {
	var names []string
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// selectNames resolves a -only value against the registry: blanks (a
// trailing comma, doubled commas) are skipped, and every name is validated
// before any experiment runs.
func selectNames(only string) ([]string, error) {
	if only == "" {
		return validNames(), nil
	}
	var names []string
	for _, part := range strings.Split(only, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if _, ok := registry[part]; !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", part, strings.Join(validNames(), ", "))
		}
		names = append(names, part)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-only %q selects no experiments (valid: %s)", only, strings.Join(validNames(), ", "))
	}
	return names, nil
}

// runFigures is `ntier figures`: it regenerates the dataset behind every
// table and figure in the paper's evaluation, writing one text report per
// experiment into -out (default ./results).
//
//	ntier figures                  # all experiments, scaled-down trials
//	ntier figures -only fig4,fig5  # a subset
//	ntier figures -full            # paper-scale 8-min ramp / 12-min runtime
//	ntier figures -parallel 1      # serial trials (output is identical)
//
// Generators and the trials inside their sweeps run on a bounded worker
// pool (one worker per CPU by default); every dataset is byte-identical
// to a serial run.
func runFigures(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("figures", stderr)
	tf := trialFlags{
		seed:   fs.Uint64("seed", 1, "random seed"),
		common: registerCommonFlags(fs),
	}
	var (
		out  = fs.String("out", "results", "output directory")
		only = fs.String("only", "", "comma-separated subset (fig2..fig10, table1, ablation)")
		full = fs.Bool("full", false, "paper-scale trials (8-min ramp, 12-min runtime)")
	)
	if code := tf.parse(fs, args); code != 0 {
		return code
	}
	names, err := selectNames(*only)
	if err != nil {
		return failUsage(fs, err)
	}

	ctx, stop := withSignalContext(context.Background())
	defer stop()

	g := &generator{run: tf.base(ctx)}
	g.run.RampUp, g.run.Measure = 30*time.Second, 45*time.Second
	if *full {
		g.run.RampUp, g.run.Measure = 8*time.Minute, 12*time.Minute
	}
	fail := func(err error) int { return exitErr(stderr, *tf.common.stateDir, err) }
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}

	// The per-sweep journal fingerprints cover each figure's actual
	// configurations; the directory fingerprint pins the shared knobs.
	st, err := tf.common.openState(experiment.Fingerprint(g.run, journalTag("figures")))
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	g.run.State = st

	// Generators are independent — run them on the same bounded worker
	// pool the sweeps use. Each writes its own file; the datasets are
	// byte-identical to a serial run at any -parallel setting.
	var mu sync.Mutex
	err = experiment.ForEachIndexCtx(ctx, len(names), *tf.common.parallel, func(i int) error {
		name := names[i]
		start := time.Now()
		text, err := registry[name](g)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		path := filepath.Join(*out, name+".txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		mu.Lock()
		fmt.Fprintf(stdout, "== %s: wrote %s (%.1fs)\n", name, path, time.Since(start).Seconds())
		mu.Unlock()
		return nil
	})
	if err != nil {
		return fail(err)
	}
	return 0
}

// fig2: goodput of 1/2/1/2 under 400-6-6 vs 400-15-6 at three SLA
// thresholds (under-allocation impact).
func fig2(g *generator) (string, error) {
	users := span(4200, 6800, 400)
	low, err := experiment.WorkloadSweep(g.base("1/2/1/2", "400-6-6"), users)
	if err != nil {
		return "", err
	}
	good, err := experiment.WorkloadSweep(g.base("1/2/1/2", "400-15-6"), users)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 2: goodput comparison, 1/2/1/2, under-allocation of Tomcat pools\n\n")
	for _, th := range sla.StandardThresholds {
		b.WriteString(experiment.CurveTable(fmt.Sprintf("(threshold %v)", th), th, low, good).String())
		b.WriteString("\n")
	}
	return b.String(), nil
}

// fig3: the same allocations on 1/4/1/4 (over-allocation crossover) plus
// the response-time distribution at workload 7000.
func fig3(g *generator) (string, error) {
	users := span(6000, 7800, 300)
	low, err := experiment.WorkloadSweep(g.base("1/4/1/4", "400-6-6"), users)
	if err != nil {
		return "", err
	}
	high, err := experiment.WorkloadSweep(g.base("1/4/1/4", "400-15-6"), users)
	if err != nil {
		return "", err
	}
	// The histogram rows below dereference individual sweep points.
	if err := low.Err(); err != nil {
		return "", err
	}
	if err := high.Err(); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 3: over-allocation crossover, 1/4/1/4\n\n")
	for _, th := range []time.Duration{500 * time.Millisecond, time.Second} {
		b.WriteString(experiment.CurveTable(fmt.Sprintf("(threshold %v)", th), th, low, high).String())
		b.WriteString("\n")
	}
	// Use the sweep point closest to the paper's workload 7000.
	// math.MaxInt (not 1<<62, which overflows int) keeps this portable
	// to 32-bit targets.
	idx, best := 0, math.MaxInt
	for i, n := range users {
		if d := n - 7000; d*d < best {
			idx, best = i, d*d
		}
	}
	fmt.Fprintf(&b, "Figure 3(c): response-time distribution at workload %d\n", users[idx])
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "bucket [s]", "400-6-6", "400-15-6")
	hLow := low.Results[idx].SLA.Histogram()
	hHigh := high.Results[idx].SLA.Histogram()
	labels := hLow.Labels()
	fl, fh := hLow.Fractions(), hHigh.Fractions()
	for i, lab := range labels {
		fmt.Fprintf(&b, "%-10s %11.1f%% %11.1f%%\n", lab, fl[i]*100, fh[i]*100)
	}
	return b.String(), nil
}

// fig4: Tomcat thread-pool under-allocation on 1/2/1/2 — goodput, Tomcat
// CPU, and thread-pool utilization density per size.
func fig4(g *generator) (string, error) {
	users := span(4000, 6800, 400)
	base := g.base("1/2/1/2", "400-15-20")
	points, err := experiment.AllocSweep(base, users, []int{6, 10, 20, 200}, experiment.VaryAppThreads)
	if err != nil {
		return "", err
	}
	curves, err := curvesOf(points)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 4: Tomcat thread-pool under/over-allocation, 1/2/1/2 (Apache 400, conns 20)\n\n")
	b.WriteString(experiment.CurveTable("(a) goodput, threshold 2s", 2*time.Second, curves...).String())

	b.WriteString("\n(d) mean Tomcat CPU utilization [%]\n")
	fmt.Fprintf(&b, "%-9s", "workload")
	for _, p := range points {
		fmt.Fprintf(&b, " %12s", p.Soft)
	}
	b.WriteString("\n")
	for i, n := range users {
		fmt.Fprintf(&b, "%-9d", n)
		for _, p := range points {
			fmt.Fprintf(&b, " %12.1f", experiment.TierCPU(p.Curve.Results[i].Tomcat)*100)
		}
		b.WriteString("\n")
	}

	b.WriteString("\n(b,c,e,f) thread-pool utilization density: fraction of time at pool occupancy decile\n")
	for _, p := range points {
		fmt.Fprintf(&b, "\npool size %d (%s): rows = workload, cols = occupancy 0-10%% .. 90-100%%\n",
			p.Soft.AppThreads, p.Soft)
		for i, n := range users {
			st := p.Curve.Results[i].Tomcat[0].Pool("/threads")
			if st == nil {
				continue
			}
			deciles := make([]float64, 10)
			var total time.Duration
			for occ, d := range st.OccTime {
				total += d
				dec := occ * 10 / st.Capacity
				if dec > 9 {
					dec = 9
				}
				deciles[dec] += d.Seconds()
			}
			fmt.Fprintf(&b, "%6d |", n)
			for _, d := range deciles {
				fmt.Fprintf(&b, " %5.2f", d/total.Seconds())
			}
			b.WriteString("\n")
		}
	}
	return b.String(), nil
}

// fig5: DB connection-pool over-allocation on 1/4/1/4 — goodput, C-JDBC
// CPU, and total JVM GC time.
func fig5(g *generator) (string, error) {
	users := span(6000, 7800, 600)
	base := g.base("1/4/1/4", "400-200-10")
	points, err := experiment.AllocSweep(base, users, []int{10, 50, 100, 200}, experiment.VaryAppConns)
	if err != nil {
		return "", err
	}
	curves, err := curvesOf(points)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 5: DB connection-pool over-allocation, 1/4/1/4 (Apache 400, threads 200)\n\n")
	b.WriteString(experiment.CurveTable("(a) goodput, threshold 2s", 2*time.Second, curves...).String())

	b.WriteString("\n(a') overall throughput [req/s]\n")
	fmt.Fprintf(&b, "%-9s", "workload")
	for _, p := range points {
		fmt.Fprintf(&b, " %14s", p.Soft)
	}
	b.WriteString("\n")
	for i, n := range users {
		fmt.Fprintf(&b, "%-9d", n)
		for _, p := range points {
			fmt.Fprintf(&b, " %14.1f", p.Curve.Results[i].Throughput())
		}
		b.WriteString("\n")
	}

	b.WriteString("\n(b) C-JDBC CPU utilization [%]   (c) C-JDBC total GC time [s] and share of runtime\n")
	fmt.Fprintf(&b, "%-9s", "workload")
	for _, p := range points {
		fmt.Fprintf(&b, " %20s", p.Soft)
	}
	b.WriteString("\n")
	for i, n := range users {
		fmt.Fprintf(&b, "%-9d", n)
		for _, p := range points {
			r := p.Curve.Results[i]
			gc := r.CJDBC[0].GC
			fmt.Fprintf(&b, "   %5.1f%% %6.1fs(%4.1f%%)",
				r.CJDBC[0].CPUUtil*100, gc.TotalGC.Seconds(), gc.GCFraction*100)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// fig6: Apache thread-pool buffering on 1/4/1/4 — goodput and the
// non-monotone C-JDBC CPU utilization.
func fig6(g *generator) (string, error) {
	users := span(6000, 7800, 300)
	base := g.base("1/4/1/4", "400-6-20")
	points, err := experiment.AllocSweep(base, users, []int{50, 100, 200, 300, 400}, experiment.VaryWebThreads)
	if err != nil {
		return "", err
	}
	curves, err := curvesOf(points)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 6: Apache thread-pool buffering, 1/4/1/4 (Tomcat 6 threads / 20 conns)\n\n")
	b.WriteString(experiment.CurveTable("(a) goodput, threshold 2s", 2*time.Second, curves...).String())

	b.WriteString("\n(b) C-JDBC CPU utilization [%] — decreases with workload for small Apache pools\n")
	fmt.Fprintf(&b, "%-9s", "workload")
	for _, p := range points {
		fmt.Fprintf(&b, " %12d", p.Soft.WebThreads)
	}
	b.WriteString("\n")
	for i, n := range users {
		fmt.Fprintf(&b, "%-9d", n)
		for _, p := range points {
			fmt.Fprintf(&b, " %12.1f", p.Curve.Results[i].CJDBC[0].CPUUtil*100)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// apacheTimeline renders the Fig. 7/8 per-second Apache view.
func apacheTimeline(g *generator, soft string, users int, seconds int) (string, error) {
	cfg := g.base("1/4/1/4", soft)
	cfg.Users = users
	cfg.Timeline = true
	res, err := experiment.Run(cfg)
	if err != nil {
		return "", err
	}
	tl := res.Timeline
	var b strings.Builder
	fmt.Fprintf(&b, "allocation %s, workload %d: %s\n", soft, users, res.Describe())
	fmt.Fprintf(&b, "%-5s %10s %12s %12s %10s %12s\n",
		"sec", "processed", "PT_total", "PT_connTC", "active", "connTomcat")
	n := len(tl.Processed)
	if n > seconds {
		n = seconds
	}
	for i := 0; i < n; i++ {
		act, conn := 0.0, 0.0
		if i < len(tl.ActiveRaw) {
			act, conn = tl.ActiveRaw[i], tl.ConnectRaw[i]
		}
		fmt.Fprintf(&b, "%-5d %10.0f %10.1fms %10.1fms %10.0f %12.0f\n",
			i, tl.Processed[i], tl.PTTotalMS[i], tl.PTConnectMS[i], act, conn)
	}
	return b.String(), nil
}

// fig7: Apache internals with a 300-worker pool at workloads 6000 and 7400.
func fig7(g *generator) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 7: small Apache buffer (300 workers), per-second internals\n\n")
	for _, wl := range []int{6000, 7400} {
		fmt.Fprintf(&b, "--- workload %d ---\n", wl)
		s, err := apacheTimeline(g, "300-6-20", wl, 60)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
		b.WriteString("\n")
	}
	return b.String(), nil
}

// fig8: the same analysis with a 400-worker pool at workload 7400.
func fig8(g *generator) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 8: large Apache buffer (400 workers), per-second internals\n\n")
	s, err := apacheTimeline(g, "400-6-20", 7400, 60)
	if err != nil {
		return "", err
	}
	b.WriteString(s)
	return b.String(), nil
}

// table1 runs Algorithm 1 on both paper hardware configurations.
func table1(g *generator) (string, error) {
	var b strings.Builder
	b.WriteString("Table I: output of the allocation algorithm\n\n")
	for _, hw := range []string{"1/2/1/2", "1/4/1/4"} {
		rep, err := core.Tune(core.Config{Base: g.base(hw, "400-15-20")})
		if err != nil {
			return "", err
		}
		b.WriteString(rep.String())
		b.WriteString("\n")
	}
	return b.String(), nil
}

// fig10 validates the algorithm's recommendations against exhaustive pool
// sweeps.
func fig10(g *generator) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 10: validation — max throughput vs pool size\n\n")

	// (a) 1/2/1/2: Tomcat thread pool sweep (Apache 400, conns 20 fixed).
	users := span(5200, 6400, 400)
	base := g.base("1/2/1/2", "400-15-20")
	points, err := experiment.AllocSweep(base, users, []int{4, 6, 8, 10, 13, 16, 20, 30, 60, 120, 200}, experiment.VaryAppThreads)
	if err != nil {
		return "", err
	}
	b.WriteString("(a) 1/2/1/2 (400-#-20): max TP vs thread pool size per Tomcat\n")
	for _, p := range points {
		fmt.Fprintf(&b, "  threads %3d: %8.1f req/s\n", p.Soft.AppThreads, p.Curve.MaxThroughput())
	}

	// (b) 1/4/1/4: DB connection pool sweep (Apache 400, threads 200).
	users = span(6400, 7600, 400)
	base = g.base("1/4/1/4", "400-200-10")
	points, err = experiment.AllocSweep(base, users, []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20}, experiment.VaryAppConns)
	if err != nil {
		return "", err
	}
	b.WriteString("\n(b) 1/4/1/4 (400-200-#): max TP vs DB conn pool size per Tomcat\n")
	for _, p := range points {
		fmt.Fprintf(&b, "  conns %3d: %8.1f req/s\n", p.Soft.AppConns, p.Curve.MaxThroughput())
	}
	return b.String(), nil
}

// ablations re-run key sweeps with individual mechanisms disabled,
// demonstrating which model component produces which paper phenomenon.
func ablations(g *generator) (string, error) {
	var b strings.Builder
	b.WriteString("Ablations: mechanism attribution\n\n")

	// (1) Fig. 5 without the JVM GC model: conn over-allocation is nearly
	// free, flattening the ordering.
	users := []int{7000, 7800}
	for _, disable := range []bool{false, true} {
		base := g.base("1/4/1/4", "400-200-10")
		base.Testbed.DisableGC = disable
		points, err := experiment.AllocSweep(base, users, []int{10, 200}, experiment.VaryAppConns)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "conn sweep, GC disabled=%v:\n", disable)
		for _, p := range points {
			fmt.Fprintf(&b, "  %-12s maxTP %8.1f\n", p.Soft, p.Curve.MaxThroughput())
		}
	}

	// (2) Fig. 6 without lingering close: small Apache pools stop hurting.
	for _, disable := range []bool{false, true} {
		base := g.base("1/4/1/4", "400-6-20")
		base.Testbed.DisableFinWait = disable
		points, err := experiment.AllocSweep(base, []int{7400}, []int{100, 400}, experiment.VaryWebThreads)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\nApache sweep, FIN wait disabled=%v:\n", disable)
		for _, p := range points {
			fmt.Fprintf(&b, "  %-12s TP %8.1f\n", p.Soft, p.Curve.MaxThroughput())
		}
	}

	// (3) Fig. 3 without the scheduling-thrash model: the over-allocation
	// penalty at pinned connection pools disappears.
	for _, disable := range []bool{false, true} {
		base := g.base("1/4/1/4", "400-15-6")
		if disable {
			base.Testbed.TuneCJDBC = func(c *tier.CJDBCConfig) {
				c.ThrashCoeff = 0
				c.CtxSwitchCoeff = 0
			}
		}
		curve, err := experiment.WorkloadSweep(base, []int{7000, 7400})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n400-15-6 sweep, thrash disabled=%v: goodput(1s) %v\n",
			disable, curve.Goodputs(time.Second))
	}
	return b.String(), nil
}
