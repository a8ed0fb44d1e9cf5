package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {95, 95.05},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 {
		t.Error("empty sample should return zeros")
	}
}

func TestSampleAddAfterQueryResorts(t *testing.T) {
	var s Sample
	s.Add(5)
	_ = s.Percentile(50)
	s.Add(1)
	if got := s.Percentile(0); got != 1 {
		t.Errorf("min after late add = %v, want 1", got)
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(xs []float64, p8 uint8) bool {
		var s Sample
		lo, hi := math.Inf(1), math.Inf(-1)
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
			n++
		}
		if n == 0 {
			return true
		}
		p := float64(p8) / 255 * 100
		got := s.Percentile(p)
		return got >= lo && got <= hi
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.2, 0.4, 1.0})
	for _, x := range []float64{0.1, 0.2, 0.3, 0.9, 1.5, 2.0} {
		h.Add(x)
	}
	want := []uint64{1, 2, 1, 2} // [0,.2) [.2,.4) [.4,1) >=1
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (%v)", i, got[i], want[i], got)
		}
	}
	fr := h.Fractions()
	if math.Abs(fr[3]-2.0/6.0) > 1e-12 {
		t.Errorf("overflow fraction %v, want 1/3", fr[3])
	}
	labels := h.Labels()
	if labels[0] != "[0,0.2)" || labels[3] != ">=1" {
		t.Errorf("labels %v", labels)
	}
}

func TestHistogramInvalidBoundsPanic(t *testing.T) {
	for _, bounds := range [][]float64{{}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestWindowsBucketing(t *testing.T) {
	w := NewWindows(10*time.Second, time.Second)
	w.Observe(9*time.Second, 1) // before start: dropped
	w.Observe(10*time.Second, 2)
	w.Observe(10500*time.Millisecond, 3)
	w.Observe(12*time.Second, 4)
	if w.Count(0) != 2 || w.Mean(0) != 2.5 {
		t.Errorf("window 0: count %d mean %v, want 2/2.5", w.Count(0), w.Mean(0))
	}
	if w.Count(1) != 0 {
		t.Errorf("window 1 count %d, want 0", w.Count(1))
	}
	if w.Count(2) != 1 || w.Mean(2) != 4 {
		t.Errorf("window 2: count %d mean %v, want 1/4", w.Count(2), w.Mean(2))
	}
	rates := w.Rates()
	if rates[0] != 2 || rates[2] != 1 {
		t.Errorf("rates %v", rates)
	}
}

func TestHistogramFractionsSumToOne(t *testing.T) {
	h := NewHistogram([]float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0})
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 1000; i++ {
		h.Add(r.Float64() * 3)
	}
	sum := 0.0
	for _, f := range h.Fractions() {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum %v, want 1", sum)
	}
}

func TestSamplePercentileMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var s Sample
	vals := make([]float64, 999)
	for i := range vals {
		vals[i] = r.NormFloat64()
		s.Add(vals[i])
	}
	sort.Float64s(vals)
	if got := s.Percentile(0); got != vals[0] {
		t.Errorf("P0 = %v, want %v", got, vals[0])
	}
	if got := s.Percentile(100); got != vals[len(vals)-1] {
		t.Errorf("P100 = %v, want %v", got, vals[len(vals)-1])
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

// TestSampleJSONMatchesEncodingJSON pins the journal image of a sample,
// encoded by pointer and by value, to testdata/sample_json.golden, the
// bytes every journal holds: the 'f'/'e' cutover at 1e-6 and 1e21, the
// unpadded negative exponent, signed zero, nil versus empty, and the
// sorted flag.
func TestSampleJSONMatchesEncodingJSON(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), 1e-7, 9.99e-7, 1e-6, 1e20, 1e21, 5e-324, math.MaxFloat64,
		1.5e-9, 1e-100, 1.2345678901234567e-6, 123456789012345680000, 1e300}
	var signed []float64
	for _, x := range edges {
		signed = append(signed, x, -x)
	}
	r := rand.New(rand.NewSource(11))
	rts := make([]float64, 2000)
	for i := range rts {
		// Response times as sla.Collector records them: Duration.Seconds.
		rts[i] = (time.Duration(r.ExpFloat64()*float64(300*time.Millisecond)) + time.Duration(r.Intn(3))*time.Second).Seconds()
	}
	var lines []string
	for _, c := range []struct {
		name   string
		values []float64
	}{
		{"nil", nil},
		{"empty", []float64{}},
		{"edges", signed},
		{"response times", rts},
	} {
		for _, sorted := range []bool{false, true} {
			s := Sample{sampleJSON{Obs: c.values, Sorted: sorted}}
			got, err := json.Marshal(&s)
			if err != nil {
				t.Fatalf("%s sorted=%v: %v", c.name, sorted, err)
			}
			if byValue, err := json.Marshal(s); err != nil || !bytes.Equal(byValue, got) {
				t.Errorf("%s sorted=%v: json.Marshal(sample) = %.300s, %v; by pointer %.300s", c.name, sorted, byValue, err, got)
			}
			lines = append(lines, fmt.Sprintf("%s sorted=%v\t%s", c.name, sorted, got))
		}
	}
	goldenLines(t, "sample_json.golden", lines)
}

func TestSampleJSONRejectsNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := Sample{sampleJSON{Obs: []float64{1, x}}}
		for _, v := range []any{&s, s} {
			var unsupported *json.UnsupportedValueError
			if data, err := json.Marshal(v); !errors.As(err, &unsupported) {
				t.Errorf("json.Marshal(%T) with %v = %s, %v; want a *json.UnsupportedValueError", v, x, data, err)
			}
		}
	}
}

// TestSampleJSONRoundTripPreservesOrder checks that a decode restores every
// bit, the insertion order and the sorted flag, into a presized slice, so
// the statistics match bit for bit.
func TestSampleJSONRoundTripPreservesOrder(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	s := &Sample{}
	for i := 0; i < 5000; i++ {
		s.Add(r.ExpFloat64() * math.Pow(10, float64(r.Intn(40)-20)))
	}
	s.Add(math.Copysign(0, -1))
	for _, query := range []bool{false, true} {
		if query {
			s.Percentile(50)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Sample
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back.Sorted != s.Sorted || len(back.Obs) != len(s.Obs) {
			t.Fatalf("sorted=%v: round trip gave sorted=%v with %d values, want %d", s.Sorted, back.Sorted, len(back.Obs), len(s.Obs))
		}
		for i, x := range s.Obs {
			if math.Float64bits(back.Obs[i]) != math.Float64bits(x) {
				t.Fatalf("sorted=%v: value %d = %v, want %v", s.Sorted, i, back.Obs[i], x)
			}
		}
		if cap(back.Obs) > len(s.Obs)+1 {
			t.Errorf("decoded cap %d for %d values, want it presized", cap(back.Obs), len(s.Obs))
		}
		orig := Sample{sampleJSON{Obs: append([]float64(nil), s.Obs...), Sorted: s.Sorted}}
		for _, p := range []float64{0, 25, 50, 95, 99.9, 100} {
			if got, want := back.Percentile(p), orig.Percentile(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("sorted=%v: Percentile(%v) = %v, want %v", s.Sorted, p, got, want)
			}
		}
		if got, want := back.Mean(), orig.Mean(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("sorted=%v: Mean = %v, want %v", s.Sorted, got, want)
		}
	}
	for _, values := range [][]float64{nil, {}} {
		data, err := json.Marshal(&Sample{sampleJSON{Obs: values}})
		if err != nil {
			t.Fatal(err)
		}
		var back Sample
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if (back.Obs == nil) != (values == nil) || len(back.Obs) != 0 {
			t.Errorf("%s round-tripped to %#v", data, back.Obs)
		}
	}
}

// addSample returns a benchmark body that builds an n-value sample per op.
func addSample(n int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var s Sample
			for i := range n {
				s.Add(float64(i))
			}
		}
	}
}

// TestSampleAddAllocatesAboutFinalSize bounds what n Adds allocate:
// doubling allocates at most twice the final power-of-two slice, where
// append's 1.25× steps allocated four to five times the final slice.
func TestSampleAddAllocatesAboutFinalSize(t *testing.T) {
	// The allocation is deterministic, so a few ops measure it exactly;
	// testing.Benchmark would otherwise run each size for a second.
	bt := flag.Lookup("test.benchtime").Value
	old := bt.String()
	if err := bt.Set("5x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bt.Set(old) })
	for _, n := range []int{300, 5000, 100000} {
		pow := 1
		for pow < n {
			pow *= 2
		}
		limit := int64(2*pow*8 + 64)
		// Allocations elsewhere in the process (the runtime, the GC) land
		// in the count and only ever add bytes, so the least of a few
		// readings is the Adds' own figure.
		got := testing.Benchmark(addSample(n)).AllocedBytesPerOp()
		for range 4 {
			got = min(got, testing.Benchmark(addSample(n)).AllocedBytesPerOp())
		}
		if got > limit {
			t.Errorf("%d Adds allocated %d bytes, want at most %d", n, got, limit)
		}
	}
}

func BenchmarkSampleAdd(b *testing.B) { addSample(50000)(b) }

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 8, 8} {
		h.Add(v)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	back := &Histogram{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.Total() != h.Total() {
		t.Errorf("Total() = %d, want %d", back.Total(), h.Total())
	}
	got, want := back.Buckets(), h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestHistogramJSONRejectsMismatchedCounts(t *testing.T) {
	bad := []byte(`{"bounds":[1,2],"counts":[0,1],"total":1}`)
	h := &Histogram{}
	if err := json.Unmarshal(bad, h); err == nil {
		t.Error("mismatched counts/bounds unmarshaled without error")
	}
}
