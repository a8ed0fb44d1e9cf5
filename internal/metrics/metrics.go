// Package metrics provides the measurement primitives the experiments use:
// exact-percentile samples, fixed-bucket histograms (the paper's
// response-time distributions) and per-interval time windows (the paper's
// 1-second SysStat granularity).
// Sample and Histogram embed their experiment-journal image, which
// encoding/json writes directly.
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Sample retains every observation for exact percentile queries.
type Sample struct {
	sampleJSON
}

// sampleJSON is Sample's state and its journal image, which encoding/json
// writes directly: float64 round-trips exactly (shortest decimal
// representation), and the values keep their current order, so
// order-dependent statistics (Mean's summation, Percentile's first sort)
// are bit-identical after a reload. Its fields are promoted, so only this
// package writes them (TestNoForeignImageFields): a foreign write to
// Sorted would corrupt Percentile.
type sampleJSON struct {
	Obs    []float64 `json:"values"`
	Sorted bool      `json:"sorted,omitempty"`
}

// sampleDoubleFrom is the length from which Add doubles the slice itself.
// Below it append already doubles (it switches to 1.25× steps at 256
// elements), so small samples grow as append grows them.
const sampleDoubleFrom = 256

// Add appends one observation. The slice grows by doubling: append's
// 1.25× steps would allocate four to five times the final slice over a
// trial, and the response-time sample is a trial's largest allocation.
func (s *Sample) Add(x float64) {
	if n := len(s.Obs); n == cap(s.Obs) && n >= sampleDoubleFrom {
		grown := make([]float64, n, 2*n)
		copy(grown, s.Obs)
		s.Obs = grown
	}
	s.Obs = append(s.Obs, x)
	s.Sorted = false
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.Obs) }

// Mean returns the sample mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if len(s.Obs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Obs {
		sum += v
	}
	return sum / float64(len(s.Obs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation, or 0 with no observations.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.Obs)
	if n == 0 {
		return 0
	}
	if !s.Sorted {
		sort.Float64s(s.Obs)
		s.Sorted = true
	}
	if p <= 0 {
		return s.Obs[0]
	}
	if p >= 100 {
		return s.Obs[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return s.Obs[n-1]
	}
	return s.Obs[lo]*(1-frac) + s.Obs[lo+1]*frac
}

// Values returns the observations, sorted if Percentile was called since
// the last Add.
// The caller must not modify the returned slice.
func (s *Sample) Values() []float64 { return s.Obs }

// UnmarshalJSON restores a sample from its journal image. The values slice
// is presized from the comma count, which bounds the element count, so
// decoding does not regrow it. A null leaves the sample as it is, as
// encoding/json does for a value without a decoder of its own.
func (s *Sample) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	v := sampleJSON{Obs: make([]float64, 0, bytes.Count(data, []byte{','})+1)}
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	s.sampleJSON = v
	return nil
}

// Histogram counts observations into fixed buckets. Bucket i covers
// [bounds[i-1], bounds[i]); a final implicit bucket covers values >= the
// last bound.
type Histogram struct {
	histogramJSON
}

// histogramJSON is Histogram's state and its journal image, which
// encoding/json writes directly. Only this package writes its promoted
// fields (TestNoForeignImageFields).
type histogramJSON struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	N      uint64    `json:"total"`
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
	return &Histogram{histogramJSON{
		Bounds: append([]float64(nil), bounds...),
		Counts: make([]uint64, len(bounds)+1),
	}}
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	i := sort.SearchFloat64s(h.Bounds, x)
	if i < len(h.Bounds) && x == h.Bounds[i] {
		i++ // upper bounds are exclusive
	}
	h.Counts[i]++
	h.N++
}

// Buckets returns the per-bucket counts (len(bounds)+1 entries; the last is
// the overflow bucket).
func (h *Histogram) Buckets() []uint64 { return append([]uint64(nil), h.Counts...) }

// Fractions returns per-bucket fractions of the total, or all zeros when
// empty.
func (h *Histogram) Fractions() []float64 {
	f := make([]float64, len(h.Counts))
	if h.N == 0 {
		return f
	}
	for i, c := range h.Counts {
		f[i] = float64(c) / float64(h.N)
	}
	return f
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.N }

// UnmarshalJSON restores a histogram from its journal image.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var v histogramJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	if len(v.Bounds) == 0 || len(v.Counts) != len(v.Bounds)+1 {
		return fmt.Errorf("metrics: histogram with %d bounds and %d counts", len(v.Bounds), len(v.Counts))
	}
	h.histogramJSON = v
	return nil
}

// Labels returns human-readable bucket labels, e.g. "[0.2,0.4)".
func (h *Histogram) Labels() []string {
	labels := make([]string, len(h.Counts))
	prev := 0.0
	for i, b := range h.Bounds {
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

// Mean returns window i's value sum over its count, or 0 for an empty
// window.
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
