package search

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/testbed"
)

// acceptanceOptions is the ISSUE acceptance scenario: the seeded 1/2/1/2
// topology, a 12-allocation × 2-workload grid (24 exhaustive trials), and
// a search budget of 6 — exactly 25% of the grid.
func acceptanceOptions() Options {
	return Options{
		Base: experiment.RunConfig{
			Testbed: testbed.Options{
				Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
				Soft:     testbed.SoftAlloc{WebThreads: 400, AppThreads: 30, AppConns: 20},
				Seed:     21,
			},
			RampUp:      15 * time.Second,
			Measure:     30 * time.Second,
			Parallelism: 4,
		},
		WebThreads: []int{400},
		AppThreads: []int{4, 8, 15, 30},
		AppConns:   []int{2, 6, 12},
		Workloads:  []int{4000, 6000},
		SLA:        time.Second,
		Budget:     6,
	}
}

// TestSearchAcceptance checks the ISSUE acceptance criterion end to end:
// within 25% of the exhaustive grid's trial count, the search must find an
// allocation whose goodput at the 1 s SLA is within 5% of the grid's best,
// deterministically for the fixed seed.
func TestSearchAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid + search skipped in short mode")
	}
	opts := acceptanceOptions()

	// Exhaustive grid: every candidate at every workload.
	type cell struct {
		soft testbed.SoftAlloc
		wl   int
	}
	var grid []cell
	for _, a := range opts.AppThreads {
		for _, c := range opts.AppConns {
			for _, wl := range opts.Workloads {
				grid = append(grid, cell{testbed.SoftAlloc{WebThreads: 400, AppThreads: a, AppConns: c}, wl})
			}
		}
	}
	var mu sync.Mutex
	gridBest := 0.0
	var gridBestAt cell
	err := experiment.ForEachIndex(context.Background(), len(grid), 4, func(i int) error {
		cfg := opts.Base
		cfg.Testbed.Soft = grid[i].soft
		cfg.Users = grid[i].wl
		res, err := experiment.Run(cfg)
		if err != nil {
			return err
		}
		g := res.Goodput(opts.SLA)
		mu.Lock()
		if g > gridBest {
			gridBest, gridBestAt = g, grid[i]
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gridBest <= 0 {
		t.Fatalf("exhaustive grid found no goodput at all")
	}
	t.Logf("grid best: %s at workload %d, goodput %.1f (%d trials)",
		gridBestAt.soft, gridBestAt.wl, gridBest, len(grid))

	out, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("search best: %s at workload %d, goodput %.1f (%d trials)",
		out.Best, out.BestWorkload, out.BestGoodput, out.Trials)
	for _, line := range out.Log {
		t.Log(line)
	}
	if maxTrials := len(grid) / 4; out.Trials > maxTrials {
		t.Errorf("search used %d trials, budget cap is %d (25%% of the %d-trial grid)",
			out.Trials, maxTrials, len(grid))
	}
	if out.BestGoodput < 0.95*gridBest {
		t.Errorf("search best goodput %.1f is below 95%% of grid best %.1f",
			out.BestGoodput, gridBest)
	}

	// Determinism: an identical invocation reproduces the decisions, the
	// log, and the Pareto CSV byte for byte.
	out2, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Log, out2.Log) {
		t.Error("two identical searches produced different decision logs")
	}
	var csv1, csv2 bytes.Buffer
	if err := out.WriteCSV(&csv1); err != nil {
		t.Fatal(err)
	}
	if err := out2.WriteCSV(&csv2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Errorf("two identical searches produced different Pareto CSV:\n%s\nvs\n%s",
			csv1.String(), csv2.String())
	}
}

// TestSearchResume kills a journaled search by truncating its journal
// mid-record (exactly what a crash leaves behind) and asserts the resumed
// run replays the salvaged prefix and produces byte-identical Pareto CSV.
func TestSearchResume(t *testing.T) {
	if testing.Short() {
		t.Skip("journaled search skipped in short mode")
	}
	dir := filepath.Join(t.TempDir(), "state")
	opts := acceptanceOptions()

	st, err := experiment.OpenState(dir, "search-resume-test", false)
	if err != nil {
		t.Fatal(err)
	}
	opts.Base.State = st
	out1, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var csv1 bytes.Buffer
	if err := out1.WriteCSV(&csv1); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: cut the journal to 60% of its length, tearing
	// the record that was mid-write.
	matches, err := filepath.Glob(filepath.Join(dir, "search-*.journal"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected one search journal, got %v (err %v)", matches, err)
	}
	info, err := os.Stat(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(matches[0], info.Size()*6/10); err != nil {
		t.Fatal(err)
	}

	st2, err := experiment.OpenState(dir, "search-resume-test", true)
	if err != nil {
		t.Fatal(err)
	}
	opts.Base.State = st2
	out2, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if out2.Restored == 0 {
		t.Error("resumed search restored no trials from the journal")
	}
	if out2.Restored >= out2.Trials {
		t.Errorf("resumed search restored %d of %d trials; the torn tail should have re-run",
			out2.Restored, out2.Trials)
	}
	if out1.Trials != out2.Trials {
		t.Errorf("trial budget accounting diverged: %d then %d", out1.Trials, out2.Trials)
	}
	var csv2 bytes.Buffer
	if err := out2.WriteCSV(&csv2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Errorf("resumed search CSV differs from the original:\n%s\nvs\n%s",
			csv1.String(), csv2.String())
	}
}

// smallOptions is a fast end-to-end scenario that also runs in short mode
// (and under -race in CI): a tiny topology, short protocol, four
// candidates, two rungs.
func smallOptions() Options {
	return Options{
		Base: experiment.RunConfig{
			Testbed: testbed.Options{
				Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
				Soft:     testbed.SoftAlloc{WebThreads: 200, AppThreads: 20, AppConns: 10},
				Seed:     7,
			},
			RampUp:      2 * time.Second,
			Measure:     6 * time.Second,
			Parallelism: 2,
		},
		WebThreads: []int{200},
		AppThreads: []int{2, 8},
		AppConns:   []int{2, 8},
		Workloads:  []int{300, 900},
		SLA:        time.Second,
		Budget:     4,
	}
}

func TestSearchSmallEndToEnd(t *testing.T) {
	out, err := Run(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials > 4 {
		t.Errorf("search used %d trials, budget was 4", out.Trials)
	}
	if out.BestGoodput <= 0 {
		t.Errorf("search found no goodput: best %.1f", out.BestGoodput)
	}
	if len(out.Points) == 0 || len(out.Log) == 0 {
		t.Fatalf("empty outcome: %d points, %d log lines", len(out.Points), len(out.Log))
	}
	if len(out.Frontiers) != len(out.Thresholds) {
		t.Fatalf("%d frontiers for %d thresholds", len(out.Frontiers), len(out.Thresholds))
	}
	for i := range out.Frontiers[0] {
		if i > 0 && out.Frontiers[0][i].Units < out.Frontiers[0][i-1].Units {
			t.Error("frontier not sorted by ascending units")
		}
	}
	for i := 1; i < len(out.Points); i++ {
		if out.Points[i].Units < out.Points[i-1].Units {
			t.Error("points not sorted by ascending units")
		}
	}
}

// TestSearchBudgetTrim forces an explicit Keep wider than the budget
// affords and checks the trim is logged and the cap respected.
func TestSearchBudgetTrim(t *testing.T) {
	opts := smallOptions()
	opts.Workloads = []int{300}
	opts.Budget = 3
	opts.Keep = 4
	out, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials > 3 {
		t.Errorf("search used %d trials, budget was 3", out.Trials)
	}
	trimmed := false
	for _, line := range out.Log {
		if strings.Contains(line, "budget trim") {
			trimmed = true
		}
	}
	if !trimmed {
		t.Error("no budget-trim decision in the log")
	}
}

func TestOptionsValidation(t *testing.T) {
	base := smallOptions()
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"no workloads", func(o *Options) { o.Workloads = nil }},
		{"budget too small", func(o *Options) { o.Budget = 1 }},
		{"sla not a threshold", func(o *Options) { o.SLA = 42 * time.Second }},
		{"invalid candidate", func(o *Options) {
			o.WebThreads = []int{0}
		}},
		{"no candidates", func(o *Options) {
			o.WebThreads, o.AppThreads, o.AppConns = nil, nil, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := base
			tc.mutate(&opts)
			if _, err := Run(opts); err == nil {
				t.Errorf("Run accepted options with %s", tc.name)
			}
		})
	}
}

func TestGrowShrinkPool(t *testing.T) {
	soft := testbed.SoftAlloc{WebThreads: 100, AppThreads: 8, AppConns: 4}
	if m, ok := growPool(soft, "tomcat1/threads"); !ok || m.AppThreads != 16 {
		t.Errorf("grow threads: %v %v", m, ok)
	}
	if m, ok := growPool(soft, "apache1/workers"); !ok || m.WebThreads != 200 {
		t.Errorf("grow workers: %v %v", m, ok)
	}
	if m, ok := growPool(soft, "tomcat2/conns"); !ok || m.AppConns != 8 {
		t.Errorf("grow conns: %v %v", m, ok)
	}
	if _, ok := growPool(soft, "mystery/pool"); ok {
		t.Error("grew an unknown pool")
	}
	if m, ok := shrinkPool(soft, "tomcat"); !ok || m.AppThreads != 4 {
		t.Errorf("shrink tomcat: %v %v", m, ok)
	}
	if m, ok := shrinkPool(soft, "cjdbc"); !ok || m.AppConns != 2 {
		t.Errorf("shrink cjdbc: %v %v", m, ok)
	}
	one := testbed.SoftAlloc{WebThreads: 100, AppThreads: 1, AppConns: 1}
	if _, ok := shrinkPool(one, "tomcat"); ok {
		t.Error("shrank a one-thread pool to zero")
	}
}

func TestFrontierDominance(t *testing.T) {
	mk := func(w, a, c, wl int, gp float64) Point {
		soft := testbed.SoftAlloc{WebThreads: w, AppThreads: a, AppConns: c}
		return Point{
			Soft: soft, Workload: wl,
			Units:    soft.Units(testbed.Hardware{Web: 1, App: 1, Mid: 1, DB: 1}),
			Goodputs: []float64{gp},
		}
	}
	points := []Point{
		mk(10, 1, 1, 100, 50),  // units 12, dominated by 12-unit... itself best at 100
		mk(10, 1, 1, 200, 80),  // same alloc, better workload → represents the alloc
		mk(20, 1, 1, 100, 70),  // units 22, worse goodput than cheaper 12 → dominated
		mk(20, 5, 5, 100, 120), // units 30, best goodput → on frontier
	}
	f := frontier(points, 0)
	if len(f) != 2 {
		t.Fatalf("frontier has %d points, want 2: %+v", len(f), f)
	}
	if f[0].Units != 12 || f[0].Goodput != 80 || f[0].Workload != 200 {
		t.Errorf("frontier[0] = %+v, want 12 units / goodput 80 at workload 200", f[0])
	}
	if f[1].Units != 30 || f[1].Goodput != 120 {
		t.Errorf("frontier[1] = %+v, want 30 units / goodput 120", f[1])
	}
}

func TestWriteCSVGolden(t *testing.T) {
	out := &Outcome{
		Thresholds: []time.Duration{500 * time.Millisecond, time.Second},
		Frontiers: [][]FrontierPoint{
			{{Soft: testbed.SoftAlloc{WebThreads: 100, AppThreads: 4, AppConns: 2}, Units: 112, Goodput: 81.25, Workload: 300}},
			{{Soft: testbed.SoftAlloc{WebThreads: 100, AppThreads: 4, AppConns: 2}, Units: 112, Goodput: 99.5, Workload: 300},
				{Soft: testbed.SoftAlloc{WebThreads: 100, AppThreads: 8, AppConns: 4}, Units: 124, Goodput: 120, Workload: 900}},
		},
	}
	var buf bytes.Buffer
	if err := out.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "sla_s,soft,total_units,goodput,workload\n" +
		"0.5,100-4-2,112,81.25,300\n" +
		"1.0,100-4-2,112,99.50,300\n" +
		"1.0,100-8-4,124,120.00,900\n"
	if buf.String() != want {
		t.Errorf("WriteCSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}
