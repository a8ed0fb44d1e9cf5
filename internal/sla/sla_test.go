package sla

import (
	"encoding/json"
	"math"
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
	if got := c.Badput(2 * time.Second); got != 1 {
		t.Errorf("badput(2s) %v, want 1", got)
	}
	// Goodput + badput = throughput for every threshold.
	for _, th := range StandardThresholds {
		if diff := c.Goodput(th) + c.Badput(th) - c.Throughput(); math.Abs(diff) > 1e-12 {
			t.Errorf("goodput+badput != throughput at %v", th)
		}
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

// BenchmarkCollectorJSON encodes and decodes a collector of 50,000
// response times, about one paper-scale trial's journal image.
func BenchmarkCollectorJSON(b *testing.B) {
	c := NewCollector(StandardThresholds)
	rt := time.Duration(0)
	for range 50000 {
		rt = (rt*7919 + 104729*time.Microsecond) % (3 * time.Second)
		c.Observe(rt)
	}
	c.SetElapsed(60 * time.Second)
	c.ResponseTimes().Percentile(95)
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
