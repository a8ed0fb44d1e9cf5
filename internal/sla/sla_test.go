package sla

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestGoodputBadputSplit(t *testing.T) {
	c := NewCollector(StandardThresholds)
	for _, rt := range []time.Duration{
		100 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond,
		1500 * time.Millisecond, 3 * time.Second,
	} {
		c.Observe(rt)
	}
	c.SetElapsed(time.Second)
	if c.Total() != 5 {
		t.Fatalf("total %d, want 5", c.Total())
	}
	if got := c.Throughput(); got != 5 {
		t.Errorf("throughput %v, want 5", got)
	}
	if got := c.Goodput(500 * time.Millisecond); got != 2 {
		t.Errorf("goodput(0.5s) %v, want 2", got)
	}
	if got := c.Goodput(time.Second); got != 3 {
		t.Errorf("goodput(1s) %v, want 3", got)
	}
	if got := c.Goodput(2 * time.Second); got != 4 {
		t.Errorf("goodput(2s) %v, want 4", got)
	}
}

func TestBoundaryInclusive(t *testing.T) {
	c := NewCollector(StandardThresholds)
	c.Observe(2 * time.Second) // exactly at threshold: satisfies SLA
	c.SetElapsed(time.Second)
	if got := c.Goodput(2 * time.Second); got != 1 {
		t.Errorf("request exactly at threshold should be goodput, got %v", got)
	}
}

func TestSatisfactionRatio(t *testing.T) {
	c := NewCollector(StandardThresholds)
	if got := c.SatisfactionRatio(time.Second); got != 1 {
		t.Errorf("empty collector satisfaction %v, want 1", got)
	}
	c.Observe(500 * time.Millisecond)
	c.Observe(1500 * time.Millisecond)
	c.Observe(1800 * time.Millisecond)
	c.Observe(2500 * time.Millisecond)
	if got := c.SatisfactionRatio(2 * time.Second); got != 0.75 {
		t.Errorf("satisfaction(2s) %v, want 0.75", got)
	}
	if got := c.SatisfactionRatio(time.Second); got != 0.25 {
		t.Errorf("satisfaction(1s) %v, want 0.25", got)
	}
}

func TestUnknownThresholdPanics(t *testing.T) {
	c := NewCollector(StandardThresholds)
	c.SetElapsed(time.Second)
	defer func() {
		if recover() == nil {
			t.Error("unknown threshold did not panic")
		}
	}()
	c.Goodput(3 * time.Second)
}

func TestHistogramBucketsMatchPaper(t *testing.T) {
	c := NewCollector(StandardThresholds)
	c.Observe(100 * time.Millisecond)  // [0,0.2)
	c.Observe(300 * time.Millisecond)  // [0.2,0.4)
	c.Observe(1200 * time.Millisecond) // [1,1.5)
	c.Observe(5 * time.Second)         // >2
	h := c.Histogram()
	buckets := h.Buckets()
	// Bounds: .2 .4 .6 .8 1 1.5 2 -> 8 buckets.
	if len(buckets) != 8 {
		t.Fatalf("bucket count %d, want 8", len(buckets))
	}
	if buckets[0] != 1 || buckets[1] != 1 || buckets[5] != 1 || buckets[7] != 1 {
		t.Errorf("buckets %v", buckets)
	}
}

func TestRevenue(t *testing.T) {
	c := NewCollector(StandardThresholds)
	for i := 0; i < 8; i++ {
		c.Observe(time.Second)
	}
	for i := 0; i < 2; i++ {
		c.Observe(3 * time.Second)
	}
	c.SetElapsed(10 * time.Second)
	// 8 good earn 1 each; 2 bad pay 2 each.
	if got := c.Revenue(2*time.Second, 1, 2); got != 4 {
		t.Errorf("revenue %v, want 4", got)
	}
}

func TestResponseTimesSample(t *testing.T) {
	c := NewCollector(StandardThresholds)
	c.Observe(time.Second)
	c.Observe(3 * time.Second)
	s := c.ResponseTimes()
	if s.Count() != 2 {
		t.Fatalf("sample count %d, want 2", s.Count())
	}
	if got := s.Percentile(100); got != 3 {
		t.Errorf("max RT %v s, want 3", got)
	}
}

func TestZeroElapsedRates(t *testing.T) {
	c := NewCollector(StandardThresholds)
	c.Observe(time.Second)
	if c.Throughput() != 0 || c.Goodput(time.Second) != 0 {
		t.Error("rates should be 0 without elapsed set")
	}
}

func TestCollectorJSONRoundTrip(t *testing.T) {
	c := NewCollector(StandardThresholds)
	for _, rt := range []time.Duration{
		100 * time.Millisecond, 700 * time.Millisecond, 1500 * time.Millisecond, 3 * time.Second,
	} {
		c.Observe(rt)
	}
	c.SetElapsed(10 * time.Second)
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	back := &Collector{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.Total() != c.Total() {
		t.Errorf("Total() = %d, want %d", back.Total(), c.Total())
	}
	if got, want := back.Throughput(), c.Throughput(); got != want {
		t.Errorf("Throughput() = %v, want %v", got, want)
	}
	for _, th := range StandardThresholds {
		if got, want := back.Goodput(th), c.Goodput(th); got != want {
			t.Errorf("Goodput(%v) = %v, want %v", th, got, want)
		}
	}
	if got, want := back.ResponseTimes().Mean(), c.ResponseTimes().Mean(); got != want {
		t.Errorf("mean RT = %v, want %v", got, want)
	}
	if got, want := back.Histogram().Total(), c.Histogram().Total(); got != want {
		t.Errorf("histogram total = %d, want %d", got, want)
	}
}

func TestCollectorJSONRejectsMismatchedThresholds(t *testing.T) {
	bad := []byte(`{"thresholds":[1000000000],"good":[1,2],"total":2}`)
	c := &Collector{}
	if err := json.Unmarshal(bad, c); err == nil {
		t.Error("mismatched good/thresholds unmarshaled without error")
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files from the current encoder")

// goldenLines compares lines, one "case\tJSON" line per table case, with
// testdata/name, or rewrites the file under -update-golden.
func goldenLines(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s holds %d cases, want %d", path, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("%s line %d:\ngot  %.300s\nwant %.300s", path, i+1, lines[i], want[i])
		}
	}
}

// TestCollectorJSONMatchesGolden pins the journal image of a collector,
// its histogram and its sample to testdata/collector_json.golden: shed and
// late counters present and omitted, no histogram, a nil sample, one
// decoded from null (it stays nil), an empty and a sorted sample.
func TestCollectorJSONMatchesGolden(t *testing.T) {
	observed := func(shed, late int) *Collector {
		c := NewCollector(StandardThresholds)
		for _, rt := range []time.Duration{
			123456789, 300, 5 * time.Microsecond, 700 * time.Millisecond,
			1500 * time.Millisecond, 2*time.Second + 1, 3 * time.Second, 110 * time.Millisecond,
		} {
			c.Observe(rt)
		}
		for range shed {
			c.ObserveShed()
		}
		for range late {
			c.ObserveLate()
		}
		c.SetElapsed(10 * time.Second)
		return c
	}
	decoded := func(data string) *Collector {
		c := &Collector{}
		if err := json.Unmarshal([]byte(data), c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	fresh := NewCollector(StandardThresholds)
	fresh.SetElapsed(time.Second)
	sorted := observed(1, 0)
	sorted.ResponseTimes().Percentile(95)
	var lines []string
	for _, tc := range []struct {
		name string
		c    *Collector
	}{
		{"shed and late", observed(3, 2)},
		{"no shed or late", observed(0, 0)},
		{"no hist", decoded(`{"thresholds":[1000000000],"good":[1],"total":1,"elapsed":1000000000,"rts":{"values":[0.5]}}`)},
		{"nil sample", fresh},
		{"null sample", decoded(`{"thresholds":[1000000000],"good":[0],"total":0,"elapsed":1000000000,"rts":null}`)},
		{"empty sample", decoded(`{"thresholds":[500000000],"good":[0],"total":0,"elapsed":0,"rts":{"values":[]},"hist":{"bounds":[0.2],"counts":[0,0],"total":0}}`)},
		{"sorted sample", sorted},
	} {
		data, err := json.Marshal(tc.c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if byValue, err := json.Marshal(*tc.c); err != nil || !bytes.Equal(byValue, data) {
			t.Errorf("%s: json.Marshal(collector) = %.300s, %v; by pointer %.300s", tc.name, byValue, err, data)
		}
		lines = append(lines, tc.name+"\t"+string(data))
	}
	goldenLines(t, "collector_json.golden", lines)
}

// responseCollector returns a collector of n response times, n = 50,000
// being about one paper-scale trial's journal image.
func responseCollector(n int) *Collector {
	c := NewCollector(StandardThresholds)
	rt := time.Duration(0)
	for range n {
		rt = (rt*7919 + 104729*time.Microsecond) % (3 * time.Second)
		c.Observe(rt)
	}
	c.SetElapsed(60 * time.Second)
	c.ResponseTimes().Percentile(95)
	return c
}

// TestCollectorJSONAllocatesAboutOutputSize bounds what json.Marshal of a
// collector allocates: at most twice its output. The encoder writes the
// sample straight into its own buffer; a MarshalJSON per nesting level
// (sample, collector) built, compacted and copied its own buffer, and
// allocated 4.9 times the output.
func TestCollectorJSONAllocatesAboutOutputSize(t *testing.T) {
	// The allocation is deterministic, so a few ops measure it exactly;
	// testing.Benchmark would otherwise run for a second.
	bt := flag.Lookup("test.benchtime").Value
	old := bt.String()
	if err := bt.Set("5x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bt.Set(old) })
	c := responseCollector(50000)
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := json.Marshal(c); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Allocations elsewhere in the process only ever add bytes, so the
	// least of a few readings is the encoder's own figure.
	got := testing.Benchmark(encode).AllocedBytesPerOp()
	for range 4 {
		got = min(got, testing.Benchmark(encode).AllocedBytesPerOp())
	}
	t.Logf("%d bytes allocated for %d bytes of output (%.2fx)", got, len(data), float64(got)/float64(len(data)))
	if limit := 2 * int64(len(data)); got > limit {
		t.Errorf("json.Marshal of a %d-value collector allocated %d bytes for %d bytes of output, want at most %d",
			c.Total(), got, len(data), limit)
	}
}

// BenchmarkCollectorJSON encodes and decodes a collector of 50,000
// response times.
func BenchmarkCollectorJSON(b *testing.B) {
	c := responseCollector(50000)
	b.ReportAllocs()
	for range b.N {
		data, err := json.Marshal(c)
		if err != nil {
			b.Fatal(err)
		}
		var back Collector
		if err := json.Unmarshal(data, &back); err != nil {
			b.Fatal(err)
		}
	}
}
