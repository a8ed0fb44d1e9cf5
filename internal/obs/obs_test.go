package obs

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// feedRecorder builds a bare recorder (no testbed) whose single gauge
// reads successive values from ticks, then closes one window per tick, as
// a trial's sampling grid does.
func feedRecorder(maxSamples int, ticks []float64) *Recorder {
	r := &Recorder{cfg: Config{MaxSamples: maxSamples, SLA: time.Second}, stride: 1}
	i := -1
	r.gauge("g", func() float64 { return ticks[i] })
	r.partial = make([]float64, 1)
	r.values = make([][]float64, 1)
	for i = 0; i < len(ticks); i++ {
		r.Sample()
	}
	return r
}

func TestDecimationBoundsMemory(t *testing.T) {
	// 4 raw ticks fill the buffer and stay at full resolution.
	if r := feedRecorder(4, []float64{1, 2, 3, 4}); r.stride != 1 || len(r.values[0]) != 4 {
		t.Fatalf("a full buffer decimated: stride %d, values %v", r.stride, r.values[0])
	}
	r := feedRecorder(4, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	// Tick 5 closes on the full buffer → halve to [1.5, 3.5], stride 2,
	// and tick 5 opens a stride-2 group; ticks 6–8 fill it again with
	// 5.5 and 7.5, so tick 10 halves it to [2.5, 6.5], stride 4, with
	// ticks 9 and 10 as the open half of the next group.
	if r.stride != 4 {
		t.Fatalf("stride = %d, want 4", r.stride)
	}
	got := r.values[0]
	want := []float64{2.5, 6.5}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("decimated values = %v, want %v", got, want)
	}

	snap := r.Snapshot(TrialSummary{})
	if snap.Interval != 4 {
		t.Fatalf("effective interval = %gs, want 4s", snap.Interval)
	}
	if len(snap.Series) != 1 || len(snap.Series[0].Values) != 3 || snap.Series[0].Values[2] != 9.5 {
		t.Fatalf("snapshot series = %+v", snap.Series)
	}
}

func TestSnapshotFlushesPartialGroup(t *testing.T) {
	// 7 ticks at MaxSamples 4: tick 5 closes on the full buffer, which
	// halves to [1.5, 3.5] at stride 2, and ticks 5 and 6 fill one group
	// (5.5). Tick 7 starts a partial group that Snapshot must flush as
	// its own mean.
	r := feedRecorder(4, []float64{1, 2, 3, 4, 5, 6, 7})
	snap := r.Snapshot(TrialSummary{})
	got := snap.Series[0].Values
	want := []float64{1.5, 3.5, 5.5, 7}
	if len(got) != len(want) {
		t.Fatalf("values = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("values = %v, want %v", got, want)
		}
	}
	// Snapshot must not consume the recorder's state.
	if again := r.Snapshot(TrialSummary{}); len(again.Series[0].Values) != len(want) {
		t.Fatalf("second snapshot differs: %v", again.Series[0].Values)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.applyDefaults()
	if c.MaxSamples != 512 {
		t.Fatalf("defaults = %+v", c)
	}
	odd := Config{MaxSamples: 7}
	odd.applyDefaults()
	if odd.MaxSamples != 8 {
		t.Fatalf("odd MaxSamples not rounded up: %d", odd.MaxSamples)
	}
}

func trialFixture(hw, soft string, wl int) *TrialObs {
	return &TrialObs{
		Hardware: hw, Soft: soft, Workload: wl, Seed: 1,
		Start: 40, Interval: 1,
		Summary: TrialSummary{Workload: wl, Goodput: 500, Throughput: 505, SLASeconds: 2,
			Hardware: []HWResource{cpu("cjdbc1", "cjdbc", 0.45, 0.03)},
			Soft:     []SoftResource{pl("tomcat1/threads", "tomcat", 6, 0.99, 0.92)}},
		Series: []Series{
			{Name: "cjdbc1/cpu", Kind: KindRate, Values: []float64{0.4, 0.5}},
			{Name: "tomcat1/threads/occ", Kind: KindGauge, Values: []float64{6, 6}},
		},
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trials := []*TrialObs{
		trialFixture("1/2/1/2", "400-6-6", 5600),
		trialFixture("1/2/1/2", "400-6-6", 5000),
		trialFixture("1/2/1/2", "400-15-6", 5000),
	}
	for _, tr := range trials {
		if err := WriteFile(dir, tr); err != nil {
			t.Fatal(err)
		}
	}
	if name := trials[0].FileName(); name != "obs-1x2x1x2-400-6-6-n5600.json" {
		t.Fatalf("FileName = %q", name)
	}

	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d trials", len(got))
	}
	// Sorted by label then workload: "400-15-6" sorts before "400-6-6".
	wantOrder := []int{5000, 5000, 5600}
	for i, tr := range got {
		if tr.Workload != wantOrder[i] {
			t.Fatalf("order = [%d %d %d], want %v", got[0].Workload, got[1].Workload, got[2].Workload, wantOrder)
		}
	}
	if s := got[0].FindSeries("cjdbc1/cpu"); s == nil || s.Kind != KindRate || len(s.Values) != 2 {
		t.Fatalf("series lost in round trip: %+v", s)
	}
	if got[0].FindSeries("nope") != nil {
		t.Fatal("FindSeries invented a series")
	}

	groups := GroupTrials(got)
	if len(groups) != 2 || groups[1].Label != "1/2/1/2 400-6-6" || len(groups[1].Trials) != 2 {
		t.Fatalf("groups = %+v", groups)
	}
	if sums := groups[1].Summaries(); len(sums) != 2 || sums[1].Workload != 5600 {
		t.Fatalf("summaries = %+v", sums)
	}

	// Re-running a trial overwrites its own snapshot instead of duplicating.
	if err := WriteFile(dir, trials[0]); err != nil {
		t.Fatal(err)
	}
	if again, _ := ReadDir(dir); len(again) != 3 {
		t.Fatalf("rewrite duplicated snapshots: %d", len(again))
	}
}

func TestReadDirEmpty(t *testing.T) {
	_, err := ReadDir(t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "-obs") {
		t.Fatalf("want helpful empty-dir error, got %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(dir, trialFixture("1/2/1/2", "400-6-6", 5000)); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "obs-1x2x1x2-400-6-6-n5000.json")); err != nil {
		t.Fatal(err)
	}
}

func TestRenderReportAndCSV(t *testing.T) {
	groups := GroupTrials([]*TrialObs{
		trialFixture("1/2/1/2", "400-6-6", 5000),
		trialFixture("1/2/1/2", "400-6-6", 5600),
	})
	text := RenderReport(groups, JudgeConfig{})
	for _, want := range []string{
		"=== 1/2/1/2 400-6-6 ===",
		"goodput(2s)",
		"soft: tomcat1/threads (sat 92%)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}

	var b strings.Builder
	if err := WriteReportCSV(&b, groups, JudgeConfig{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv rows = %d:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[1], "1/2/1/2,400-6-6,5000,") || !strings.Contains(lines[1], ",soft,") {
		t.Fatalf("csv row = %q", lines[1])
	}
}

func TestRenderSVG(t *testing.T) {
	tr := trialFixture("1/2/1/2", "400-6-6", 5000)
	tr.Series = append(tr.Series, Series{Name: "a<b&c", Kind: KindGauge}) // empty + XML-special
	svg := string(RenderSVG(tr))
	for _, want := range []string{
		`<svg xmlns="http://www.w3.org/2000/svg"`,
		"polyline",
		"cjdbc1/cpu",
		"tomcat1/threads/occ (max 6)",
		"a&lt;b&amp;c", // escaped
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	if !strings.HasSuffix(svg, "</svg>\n") {
		t.Error("svg not closed")
	}
	if name := tr.SVGFileName(); name != "obs-1x2x1x2-400-6-6-n5000.svg" {
		t.Fatalf("SVGFileName = %q", name)
	}
}
