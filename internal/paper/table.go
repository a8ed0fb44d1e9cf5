package paper

import (
	"fmt"
	"strings"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/stats"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
)

// Table is the paper's evaluation, one entry per figure or table.
var Table = []*Entry{fig2(), fig3(), fig4(), fig5(), fig6(), fig7(), fig8(), fig10(), table1(), ablation()}

var throughput = (*experiment.Result).Throughput

// fig2: goodput of 1/2/1/2 under 400-6-6 vs 400-15-6 at three SLA
// thresholds (under-allocation impact).
func fig2() *Entry {
	users := grid(span(4200, 6800, 400), 4400, 5200, 6000)
	series := []Series{{Hardware: "1/2/1/2", Soft: "400-6-6", Users: users}, {Hardware: "1/2/1/2", Soft: "400-15-6", Users: users}}
	bench := []int{4400, 6000}
	var nums []Number
	for _, u := range bench {
		for _, th := range sla.StandardThresholds {
			for s, sr := range series {
				nums = append(nums, at(fmt.Sprintf("%s_g%.1fs_wl%d", sr.Soft, th.Seconds(), u), s, 0, u, goodput(th)))
			}
		}
	}
	return &Entry{Name: "fig2", Series: series, Render: renderFig2, Readings: []Reading{
		{Name: "Fig2Goodput112", Users: bench, Numbers: nums},
		{Name: "PaperHeadlineUnderAllocation", Users: []int{5200}},
	}}
}

func renderFig2(d *Data) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 2: goodput comparison, 1/2/1/2, under-allocation of Tomcat pools\n\n")
	thresholdTables(&b, sla.StandardThresholds, d.points[0][0].Curve, d.points[1][0].Curve)
	return b.String(), nil
}

// fig3cUsers is the workload of the paper's Fig. 3(c).
const fig3cUsers = 7000

// fig3: the same allocations on 1/4/1/4 (over-allocation crossover) plus
// the response-time distribution at workload 7000.
func fig3() *Entry {
	users := grid(span(6000, 7800, 300), 7000, 7400)
	series := []Series{{Hardware: "1/4/1/4", Soft: "400-6-6", Users: users}, {Hardware: "1/4/1/4", Soft: "400-15-6", Users: users}}
	cross := []int{6600, 7000, 7400}
	var crossNums, rtNums []Number
	for _, u := range cross {
		for s, sr := range series {
			crossNums = append(crossNums, at(fmt.Sprintf("%s_g0.5s_wl%d", sr.Soft, u), s, 0, u, goodput(500*time.Millisecond)))
		}
	}
	for s, sr := range series {
		rtNums = append(rtNums, at(sr.Soft+"_pct_rt<0.2s", s, 0, fig3cUsers, func(r *experiment.Result) float64 {
			return r.SLA.Histogram().Fractions()[0] * 100
		}))
	}
	return &Entry{Name: "fig3", Series: series, Render: renderFig3, Readings: []Reading{
		{Name: "Fig3Crossover141", Users: cross, Numbers: crossNums},
		{Name: "Fig3cRTDistribution", Users: []int{fig3cUsers}, Numbers: rtNums},
	}}
}

func renderFig3(d *Data) (string, error) {
	// The histogram rows below dereference individual sweep points.
	cs, err := curves(d.points...)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 3: over-allocation crossover, 1/4/1/4\n\n")
	thresholdTables(&b, []time.Duration{500 * time.Millisecond, time.Second}, cs...)
	fmt.Fprintf(&b, "Figure 3(c): response-time distribution at workload %d\n", fig3cUsers)
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "bucket [s]", d.entry.Series[0].Soft, d.entry.Series[1].Soft)
	hLow, hHigh := d.At(0, 0, fig3cUsers).SLA.Histogram(), d.At(1, 0, fig3cUsers).SLA.Histogram()
	fl, fh := hLow.Fractions(), hHigh.Fractions()
	for i, lab := range hLow.Labels() {
		fmt.Fprintf(&b, "%-10s %11.1f%% %11.1f%%\n", lab, fl[i]*100, fh[i]*100)
	}
	return b.String(), nil
}

// fig4: Tomcat thread-pool under-allocation on 1/2/1/2 — goodput, Tomcat
// CPU, and thread-pool utilization density per size.
func fig4() *Entry {
	bench := []int{5200, 6000}
	sr := Series{Hardware: "1/2/1/2", Soft: "400-15-20", Vary: testbed.AppThreads,
		Sizes: []int{6, 10, 20, 200}, Users: span(4000, 6800, 400)}
	var nums []Number
	for _, n := range sr.Sizes {
		l := fmt.Sprintf("threads%d", n)
		nums = append(nums, best(l+"_maxGoodput2s", 0, n, bench, goodput(2*time.Second)),
			at(l+"_tomcatCPU%", 0, n, 6000, func(r *experiment.Result) float64 { return experiment.TierCPU(r.Tomcat) * 100 }),
			at(l+"_poolSat%", 0, n, 6000, func(r *experiment.Result) float64 { return r.Tomcat[0].Pool(testbed.AppThreads).Saturated * 100 }))
	}
	return &Entry{Name: "fig4", Series: []Series{sr}, Render: renderFig4,
		Readings: []Reading{{Name: "Fig4ThreadPoolUnderAlloc", Users: bench, Numbers: nums}}}
}

func renderFig4(d *Data) (string, error) {
	var b strings.Builder
	points, err := poolStudy(&b, d, "Figure 4: Tomcat thread-pool under/over-allocation, 1/2/1/2 (Apache 400, conns 20)")
	if err != nil {
		return "", err
	}

	b.WriteString("\n(d) mean Tomcat CPU utilization [%]\n")
	columns(&b, points, func(p experiment.AllocPoint) string { return fmt.Sprintf(" %12s", p.Soft) },
		func(r *experiment.Result) string { return fmt.Sprintf(" %12.1f", experiment.TierCPU(r.Tomcat)*100) })

	b.WriteString("\n(b,c,e,f) thread-pool utilization density: fraction of time at pool occupancy decile\n")
	for _, p := range points {
		fmt.Fprintf(&b, "\npool size %d (%s): rows = workload, cols = occupancy 0-10%% .. 90-100%%\n",
			p.Soft.AppThreads, p.Soft)
		for i, n := range p.Curve.Users {
			st := p.Curve.Results[i].Tomcat[0].Pool(testbed.AppThreads)
			if st == nil {
				continue
			}
			deciles := make([]float64, 10)
			var total time.Duration
			for occ, d := range st.OccTime {
				total += d
				deciles[min(occ*10/st.Capacity, 9)] += d.Seconds()
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
func fig5() *Entry {
	bench := []int{7000, 7800}
	sr := Series{Hardware: "1/4/1/4", Soft: "400-200-10", Vary: testbed.AppConns,
		Sizes: []int{10, 50, 100, 200}, Users: grid(span(6000, 7800, 600), 7000, 7400)}
	var nums []Number
	for _, n := range sr.Sizes {
		l := fmt.Sprintf("conns%d", n)
		nums = append(nums, best(l+"_maxTP", 0, n, bench, throughput),
			at(l+"_cjdbcGC%", 0, n, 7800, func(r *experiment.Result) float64 { return r.CJDBC[0].GC.GCFraction * 100 }))
	}
	return &Entry{Name: "fig5", Series: []Series{sr}, Render: renderFig5, Readings: []Reading{
		{Name: "Fig5ConnPoolOverAlloc", Users: bench, Numbers: nums},
		{Name: "PaperHeadlineOverAllocation", Users: []int{7400}, Sizes: []int{10, 200}},
	}}
}

func renderFig5(d *Data) (string, error) {
	var b strings.Builder
	points, err := poolStudy(&b, d, "Figure 5: DB connection-pool over-allocation, 1/4/1/4 (Apache 400, threads 200)")
	if err != nil {
		return "", err
	}

	b.WriteString("\n(a') overall throughput [req/s]\n")
	columns(&b, points, func(p experiment.AllocPoint) string { return fmt.Sprintf(" %14s", p.Soft) },
		func(r *experiment.Result) string { return fmt.Sprintf(" %14.1f", r.Throughput()) })

	b.WriteString("\n(b) C-JDBC CPU utilization [%]   (c) C-JDBC total GC time [s] and share of runtime\n")
	columns(&b, points, func(p experiment.AllocPoint) string { return fmt.Sprintf(" %20s", p.Soft) },
		func(r *experiment.Result) string {
			gc := r.CJDBC[0].GC
			return fmt.Sprintf("   %5.1f%% %6.1fs(%4.1f%%)", r.CJDBC[0].CPUUtil*100, gc.TotalGC.Seconds(), gc.GCFraction*100)
		})
	return b.String(), nil
}

// fig6: Apache thread-pool buffering on 1/4/1/4 — goodput and the
// non-monotone C-JDBC CPU utilization.
func fig6() *Entry {
	bench := []int{6600, 7400}
	sr := Series{Hardware: "1/4/1/4", Soft: "400-6-20", Vary: testbed.WebThreads,
		Sizes: []int{50, 100, 200, 300, 400}, Users: grid(span(6000, 7800, 300), 7400)}
	benchSizes := []int{100, 200, 300, 400}
	var nums []Number
	for _, n := range benchSizes {
		l := fmt.Sprintf("web%d", n)
		nums = append(nums, best(l+"_maxTP", 0, n, bench, throughput),
			Number{l + "_cjdbcCPUdelta%", func(d *Data) float64 {
				return (d.At(0, n, 7400).CJDBC[0].CPUUtil - d.At(0, n, 6600).CJDBC[0].CPUUtil) * 100
			}})
	}
	return &Entry{Name: "fig6", Series: []Series{sr}, Render: renderFig6, Readings: []Reading{
		{Name: "Fig6ApacheBuffer", Users: bench, Sizes: benchSizes, Numbers: nums},
		{Name: "PaperHeadlineBuffering", Users: []int{7400}, Sizes: []int{200, 400}},
	}}
}

func renderFig6(d *Data) (string, error) {
	var b strings.Builder
	points, err := poolStudy(&b, d, "Figure 6: Apache thread-pool buffering, 1/4/1/4 (Tomcat 6 threads / 20 conns)")
	if err != nil {
		return "", err
	}

	b.WriteString("\n(b) C-JDBC CPU utilization [%] — decreases with workload for small Apache pools\n")
	columns(&b, points, func(p experiment.AllocPoint) string { return fmt.Sprintf(" %12d", p.Soft.WebThreads) },
		func(r *experiment.Result) string { return fmt.Sprintf(" %12.1f", r.CJDBC[0].CPUUtil*100) })
	return b.String(), nil
}

// fig7: Apache internals with a 300-worker pool at workloads 6000 and 7400.
func fig7() *Entry {
	users := []int{6000, 7400}
	var nums []Number
	for _, u := range users {
		l := fmt.Sprintf("wl%d_", u)
		nums = append(nums,
			at(l+"activeWorkers", 0, 0, u, func(r *experiment.Result) float64 { return stats.Mean(r.Timeline.ActiveRaw) }),
			at(l+"connectingTomcat", 0, 0, u, func(r *experiment.Result) float64 { return stats.Mean(r.Timeline.ConnectRaw) }),
			at(l+"PTtotalMs", 0, 0, u, func(r *experiment.Result) float64 { return stats.Mean(r.Timeline.PTTotalMS) }))
	}
	return apache("fig7", "Fig7ApacheInternals", "Figure 7: small Apache buffer (300 workers)", "300-6-20", users, nums)
}

// fig8: the same analysis with a 400-worker pool at workload 7400.
func fig8() *Entry {
	u := 7400
	return apache("fig8", "Fig8LargeBuffer", "Figure 8: large Apache buffer (400 workers)", "400-6-20", []int{u}, []Number{
		at("connectingTomcat", 0, 0, u, func(r *experiment.Result) float64 { return stats.Mean(r.Timeline.ConnectRaw) }),
		at("TP", 0, 0, u, throughput)})
}

// apache is a Fig. 7/8 entry: the per-second Apache internals of one
// allocation on 1/4/1/4 over the first 60 seconds at each workload, headed
// per workload when there are several.
func apache(name, reading, title, soft string, users []int, nums []Number) *Entry {
	return &Entry{Name: name, Render: func(d *Data) (string, error) {
		if _, err := curves(d.points...); err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString(title + ", per-second internals\n\n")
		for _, u := range users {
			if len(users) > 1 {
				fmt.Fprintf(&b, "--- workload %d ---\n", u)
			}
			res := d.At(0, 0, u)
			tl := res.Timeline
			fmt.Fprintf(&b, "allocation %s, workload %d: %s\n", soft, u, res.Describe())
			fmt.Fprintf(&b, "%-5s %10s %12s %12s %10s %12s\n",
				"sec", "processed", "PT_total", "PT_connTC", "active", "connTomcat")
			for i := range min(len(tl.Processed), 60) {
				act, conn := 0.0, 0.0
				if i < len(tl.ActiveRaw) {
					act, conn = tl.ActiveRaw[i], tl.ConnectRaw[i]
				}
				fmt.Fprintf(&b, "%-5d %10.0f %10.1fms %10.1fms %10.0f %12.0f\n",
					i, tl.Processed[i], tl.PTTotalMS[i], tl.PTConnectMS[i], act, conn)
			}
			if len(users) > 1 {
				b.WriteString("\n")
			}
		}
		return b.String(), nil
	},
		Series:   []Series{{Hardware: "1/4/1/4", Soft: soft, Users: users, Timeline: true}},
		Readings: []Reading{{Name: reading, Users: users, Numbers: nums}},
	}
}

// table1 runs Algorithm 1 on both paper hardware configurations.
func table1() *Entry {
	return &Entry{Name: "table1", tune: true, Render: func(d *Data) (string, error) {
		var b strings.Builder
		b.WriteString("Table I: output of the allocation algorithm\n\n")
		for _, rep := range d.reports {
			b.WriteString(rep.String())
			b.WriteString("\n")
		}
		return b.String(), nil
	},
		Series: []Series{{Hardware: "1/2/1/2", Soft: "400-15-20"}, {Hardware: "1/4/1/4", Soft: "400-15-20"}},
		Readings: []Reading{{Name: "Table1Algorithm", Numbers: []Number{
			{"112_WLmin", func(d *Data) float64 { return float64(d.reports[0].SaturationWL) }},
			{"112_minJobs", func(d *Data) float64 { return d.reports[0].MinJobs }},
			{"112_recThreads", func(d *Data) float64 { return float64(d.reports[0].Recommended.AppThreads) }},
			{"144_WLmin", func(d *Data) float64 { return float64(d.reports[1].SaturationWL) }},
			{"144_minJobs", func(d *Data) float64 { return d.reports[1].MinJobs }},
			{"144_recConns", func(d *Data) float64 { return float64(d.reports[1].Recommended.AppConns) }},
		}}},
	}
}

// fig10 validates the algorithm's recommendations against exhaustive pool
// sweeps: (a) the Tomcat thread pool on 1/2/1/2, (b) the DB connection
// pool on 1/4/1/4.
func fig10() *Entry {
	readings := []Reading{
		{Name: "Fig10aValidate112", Series: []int{0}, Users: []int{5600, 6000}, Sizes: []int{6, 13, 20, 60, 200}},
		{Name: "Fig10bValidate141", Series: []int{1}, Users: []int{6800, 7200}, Sizes: []int{2, 4, 6, 8, 12, 20}},
	}
	for i, label := range []string{"threads%d_maxTP", "conns%d_maxTP"} {
		r := &readings[i]
		for _, n := range r.Sizes {
			r.Numbers = append(r.Numbers, best(fmt.Sprintf(label, n), i, n, r.Users, throughput))
		}
	}
	return &Entry{Name: "fig10", Render: renderFig10, Readings: readings, Series: []Series{
		{Hardware: "1/2/1/2", Soft: "400-15-20", Vary: testbed.AppThreads,
			Sizes: []int{4, 6, 8, 10, 13, 16, 20, 30, 60, 120, 200}, Users: span(5200, 6400, 400)},
		{Hardware: "1/4/1/4", Soft: "400-200-10", Vary: testbed.AppConns,
			Sizes: []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20}, Users: span(6400, 7600, 400)},
	}}
}

func renderFig10(d *Data) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 10: validation — max throughput vs pool size\n\n")
	for s, head := range []string{"(a) 1/2/1/2 (400-#-20): max TP vs thread pool size per Tomcat",
		"\n(b) 1/4/1/4 (400-200-#): max TP vs DB conn pool size per Tomcat"} {
		b.WriteString(head + "\n")
		for j, p := range d.points[s] {
			fmt.Fprintf(&b, "  %s %3d: %8.1f req/s\n", []string{"threads", "conns"}[s], d.sizes[s][j], p.Curve.MaxThroughput())
		}
	}
	return b.String(), nil
}

// ablation re-runs key sweeps with one mechanism switched off each,
// showing which model component produces which paper phenomenon. Its
// series come in pairs, mechanism on then off: the JVM GC model under the
// Fig. 5 connection sweep, Apache's lingering close under the Fig. 6
// worker sweep, and the C-JDBC scheduling-thrash model under Fig. 3's
// 400-15-6.
func ablation() *Entry {
	gc := Series{Hardware: "1/4/1/4", Soft: "400-200-10", Vary: testbed.AppConns,
		Sizes: []int{10, 200}, Users: []int{7000, 7400, 7800}}
	fin := Series{Hardware: "1/4/1/4", Soft: "400-6-20", Vary: testbed.WebThreads,
		Sizes: []int{100, 400}, Users: []int{7400}}
	thrash := Series{Hardware: "1/4/1/4", Soft: "400-15-6", Users: []int{7000, 7400}}
	noGC, noFin, noThrash := gc, fin, thrash
	noGC.Ablate = func(o *testbed.Options) { o.DisableGC = true }
	noFin.Ablate = func(o *testbed.Options) { o.DisableFinWait = true }
	noThrash.Ablate = func(o *testbed.Options) {
		o.TuneCJDBC = func(c *tier.CJDBCConfig) { c.ThrashCoeff, c.CtxSwitchCoeff = 0, 0 }
	}
	u := []int{7400}
	return &Entry{Name: "ablation", Render: renderAblation,
		Series: []Series{gc, noGC, fin, noFin, thrash, noThrash},
		Readings: []Reading{
			{Name: "AblationNoGC", Series: []int{0, 1}, Users: u, Sizes: []int{200}, Numbers: []Number{
				best("gcOn_conns200_TP", 0, 200, u, throughput), best("gcOff_conns200_TP", 1, 200, u, throughput)}},
			// TestFacadeAblationSwitches reads this one too.
			{Name: "AblationNoFinWait", Series: []int{2, 3}, Users: u, Sizes: []int{100}, Numbers: []Number{
				best("finOn_web100_TP", 2, 100, u, throughput), best("finOff_web100_TP", 3, 100, u, throughput)}},
			{Name: "AblationNoThrash", Series: []int{4, 5}, Users: u, Numbers: []Number{
				at("thrashOn_g1s", 4, 0, u[0], goodput(time.Second)), at("thrashOff_g1s", 5, 0, u[0], goodput(time.Second))}},
		}}
}

func renderAblation(d *Data) (string, error) {
	var b strings.Builder
	b.WriteString("Ablations: mechanism attribution\n\n")
	heads := []string{"conn sweep, GC disabled=%v:\n", "\nApache sweep, FIN wait disabled=%v:\n"}
	rows := []string{"  %-12s maxTP %8.1f\n", "  %-12s TP %8.1f\n"}
	for s, points := range d.points {
		off := s%2 == 1
		if s/2 == 2 {
			fmt.Fprintf(&b, "\n%s sweep, thrash disabled=%v: goodput(1s) %v\n",
				d.entry.Series[s].Soft, off, points[0].Curve.Goodputs(time.Second))
			continue
		}
		fmt.Fprintf(&b, heads[s/2], off)
		for _, p := range points {
			fmt.Fprintf(&b, rows[s/2], p.Soft, p.Curve.MaxThroughput())
		}
	}
	return b.String(), nil
}

// thresholdTables writes one goodput table per SLA threshold.
func thresholdTables(b *strings.Builder, ths []time.Duration, cs ...*experiment.Curve) {
	for _, th := range ths {
		b.WriteString(experiment.CurveTable(fmt.Sprintf("(threshold %v)", th), th, cs...).String())
		b.WriteString("\n")
	}
}

// poolStudy writes the title and the 2 s goodput table of a pool-size
// study (Figs. 4–6) and returns its allocation points.
func poolStudy(b *strings.Builder, d *Data, title string) ([]experiment.AllocPoint, error) {
	cs, err := curves(d.points[0])
	if err != nil {
		return nil, err
	}
	b.WriteString(title + "\n\n")
	b.WriteString(experiment.CurveTable("(a) goodput, threshold 2s", 2*time.Second, cs...).String())
	return d.points[0], nil
}

// columns writes a workload × allocation table: a header of head(p) per
// allocation, then one row per workload of cell(result) per allocation.
func columns(b *strings.Builder, points []experiment.AllocPoint, head func(experiment.AllocPoint) string, cell func(*experiment.Result) string) {
	fmt.Fprintf(b, "%-9s", "workload")
	for _, p := range points {
		b.WriteString(head(p))
	}
	b.WriteString("\n")
	for i, n := range points[0].Curve.Users {
		fmt.Fprintf(b, "%-9d", n)
		for _, p := range points {
			b.WriteString(cell(p.Curve.Results[i]))
		}
		b.WriteString("\n")
	}
}
