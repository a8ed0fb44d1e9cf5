// Package metrics provides the measurement primitives the experiments use:
// streaming accumulators, exact-percentile samples, fixed-bucket histograms
// (the paper's response-time distributions), per-interval time windows (the
// paper's 1-second SysStat granularity), and a simulation-driven sampler.
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"time"
)

// Accumulator computes streaming count/mean/variance/min/max using
// Welford's algorithm.
type Accumulator struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Count returns the number of observations.
func (a *Accumulator) Count() uint64 { return a.n }

// Mean returns the sample mean, or 0 with no observations.
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Var()) }

// Min returns the smallest observation, or 0 with none.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation, or 0 with none.
func (a *Accumulator) Max() float64 { return a.max }

// Sample retains every observation for exact percentile queries.
type Sample struct {
	values []float64
	sorted bool
}

// sampleDoubleFrom is the length from which Add doubles the slice itself.
// Below it append already doubles (it switches to 1.25× steps at 256
// elements), so small samples grow as append grows them.
const sampleDoubleFrom = 256

// Add appends one observation. The slice grows by doubling: append's
// 1.25× steps would allocate four to five times the final slice over a
// trial, and the response-time sample is a trial's largest allocation.
func (s *Sample) Add(x float64) {
	if n := len(s.values); n == cap(s.values) && n >= sampleDoubleFrom {
		grown := make([]float64, n, 2*n)
		copy(grown, s.values)
		s.values = grown
	}
	s.values = append(s.values, x)
	s.sorted = false
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.values) }

// Mean returns the sample mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation, or 0 with no observations.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return s.values[n-1]
	}
	return s.values[lo]*(1-frac) + s.values[lo+1]*frac
}

// Values returns the observations, sorted if Percentile or FractionBelow
// was called since the last Add.
// The caller must not modify the returned slice.
func (s *Sample) Values() []float64 { return s.values }

// sampleJSON mirrors Sample for the experiment journal. MarshalJSON writes
// the bytes encoding/json writes for it, without going through it, and
// UnmarshalJSON decodes through it. float64 round-trips exactly (shortest
// decimal representation), and the values keep their current order, so
// order-dependent statistics (Mean's summation, Percentile's first sort)
// are bit-identical after a reload.
type sampleJSON struct {
	Values []float64 `json:"values"`
	Sorted bool      `json:"sorted,omitempty"`
}

// sampleValueBytes bounds one encoded value plus its comma. The longest
// form of a non-negative float64 is 24 bytes (0.0000012345678901234567);
// a longer (negative) value only makes append grow the buffer.
const sampleValueBytes = 25

// MarshalJSON serializes the sample, preserving observation order. It
// appends encoding/json's bytes for sampleJSON into one buffer sized from
// the sample; NaN and ±Inf fail as they do there.
func (s *Sample) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, len(`{"values":[],"sorted":true}`)+sampleValueBytes*len(s.values))
	b = append(b, `{"values":`...)
	if s.values == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, x := range s.values {
			if i > 0 {
				b = append(b, ',')
			}
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(x), Str: strconv.FormatFloat(x, 'g', -1, 64)}
			}
			b = appendJSONFloat(b, x)
		}
		b = append(b, ']')
	}
	if s.sorted {
		b = append(b, `,"sorted":true`...)
	}
	return append(b, '}'), nil
}

// appendJSONFloat appends finite x as encoding/json writes a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and from
// 1e21 up, with a one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendJSONFloat(b []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// UnmarshalJSON restores a sample serialized with MarshalJSON. The values
// slice is presized from the comma count, which bounds the element count,
// so decoding does not regrow it.
func (s *Sample) UnmarshalJSON(data []byte) error {
	v := sampleJSON{Values: make([]float64, 0, bytes.Count(data, []byte{','})+1)}
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	s.values, s.sorted = v.Values, v.Sorted
	return nil
}

// FractionBelow returns the fraction of observations <= x.
func (s *Sample) FractionBelow(x float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	return float64(sort.SearchFloat64s(s.values, math.Nextafter(x, math.Inf(1)))) / float64(n)
}

// Histogram counts observations into fixed buckets. Bucket i covers
// [bounds[i-1], bounds[i]); a final implicit bucket covers values >= the
// last bound.
type Histogram struct {
	bounds []float64
	counts []uint64
	total  uint64
}

// NewHistogram creates a histogram with the given strictly increasing upper
// bounds. It panics on empty or non-increasing bounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram with no bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds not increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	if i < len(h.bounds) && x == h.bounds[i] {
		i++ // upper bounds are exclusive
	}
	h.counts[i]++
	h.total++
}

// Buckets returns the per-bucket counts (len(bounds)+1 entries; the last is
// the overflow bucket).
func (h *Histogram) Buckets() []uint64 { return append([]uint64(nil), h.counts...) }

// Fractions returns per-bucket fractions of the total, or all zeros when
// empty.
func (h *Histogram) Fractions() []float64 {
	f := make([]float64, len(h.counts))
	if h.total == 0 {
		return f
	}
	for i, c := range h.counts {
		f[i] = float64(c) / float64(h.total)
	}
	return f
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// histogramJSON mirrors Histogram for the experiment journal.
type histogramJSON struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Total  uint64    `json:"total"`
}

// MarshalJSON serializes the histogram.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Bounds: h.bounds, Counts: h.counts, Total: h.total})
}

// UnmarshalJSON restores a histogram serialized with MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var v histogramJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	if len(v.Bounds) == 0 || len(v.Counts) != len(v.Bounds)+1 {
		return fmt.Errorf("metrics: histogram with %d bounds and %d counts", len(v.Bounds), len(v.Counts))
	}
	h.bounds, h.counts, h.total = v.Bounds, v.Counts, v.Total
	return nil
}

// Labels returns human-readable bucket labels, e.g. "[0.2,0.4)".
func (h *Histogram) Labels() []string {
	labels := make([]string, len(h.counts))
	prev := 0.0
	for i, b := range h.bounds {
		labels[i] = fmt.Sprintf("[%g,%g)", prev, b)
		prev = b
	}
	labels[len(labels)-1] = fmt.Sprintf(">=%g", prev)
	return labels
}

// Windows buckets observations into fixed time intervals measured from a
// start instant — the paper's one-second monitoring granularity.
type Windows struct {
	start    time.Duration
	interval time.Duration
	sums     []float64
	counts   []uint64
}

// NewWindows creates a window series with the given start and interval.
// Interval must be positive.
func NewWindows(start, interval time.Duration) *Windows {
	if interval <= 0 {
		panic("metrics: non-positive window interval")
	}
	return &Windows{start: start, interval: interval}
}

// Observe records value at time t. Observations before start are dropped.
func (w *Windows) Observe(t time.Duration, value float64) {
	if t < w.start {
		return
	}
	i := int((t - w.start) / w.interval)
	for len(w.sums) <= i {
		w.sums = append(w.sums, 0)
		w.counts = append(w.counts, 0)
	}
	w.sums[i] += value
	w.counts[i]++
}

// Len returns the number of windows with at least one slot allocated.
func (w *Windows) Len() int { return len(w.sums) }

// Count returns the observation count in window i (0 beyond the end).
func (w *Windows) Count(i int) uint64 {
	if i < 0 || i >= len(w.counts) {
		return 0
	}
	return w.counts[i]
}

// Sum returns the value sum in window i (0 beyond the end).
func (w *Windows) Sum(i int) float64 {
	if i < 0 || i >= len(w.sums) {
		return 0
	}
	return w.sums[i]
}

// Mean returns Sum(i)/Count(i), or 0 for an empty window.
func (w *Windows) Mean(i int) float64 {
	if w.Count(i) == 0 {
		return 0
	}
	return w.sums[i] / float64(w.counts[i])
}

// Rates returns per-window counts divided by the interval — a throughput
// timeline.
func (w *Windows) Rates() []float64 {
	out := make([]float64, len(w.counts))
	for i, c := range w.counts {
		out[i] = float64(c) / w.interval.Seconds()
	}
	return out
}
