// Package sla implements the paper's simplified service-level-agreement
// model: a response-time threshold splits throughput into goodput (requests
// within the bound, which earn revenue) and badput (requests over the bound,
// which incur penalties). See paper §II-B. A Collector embeds its
// experiment-journal image, which encoding/json writes directly.
package sla

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/softres/ntier/internal/metrics"
)

// StandardThresholds are the three SLA bounds the paper evaluates.
var StandardThresholds = []time.Duration{
	500 * time.Millisecond,
	1 * time.Second,
	2 * time.Second,
}

// RTBounds are the paper's Fig. 3(c) response-time histogram bucket bounds
// in seconds.
var RTBounds = []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0}

// Collector accumulates per-request response times during a measurement
// window and reports throughput/goodput/badput per threshold.
type Collector struct {
	collectorJSON
}

// collectorJSON is Collector's state and its journal image, which
// encoding/json writes directly, the sample and histogram inside it
// included. Durations serialize as integer nanoseconds and counters as
// integers, so a restored collector reports rates and ratios bit-identical
// to the original. Only this package writes its promoted fields
// (TestNoForeignImageFields).
type collectorJSON struct {
	Thresholds []time.Duration    `json:"thresholds"`
	Good       []uint64           `json:"good"`
	N          uint64             `json:"total"`
	ShedN      uint64             `json:"shed,omitempty"`
	LateN      uint64             `json:"late,omitempty"`
	Elapsed    time.Duration      `json:"elapsed"`
	RTs        metrics.Sample     `json:"rts"`
	Hist       *metrics.Histogram `json:"hist,omitempty"`
}

// NewCollector creates a collector for the given thresholds (typically
// StandardThresholds).
func NewCollector(thresholds []time.Duration) *Collector {
	return &Collector{collectorJSON{
		Thresholds: append([]time.Duration(nil), thresholds...),
		Good:       make([]uint64, len(thresholds)),
		Hist:       metrics.NewHistogram(RTBounds),
	}}
}

// Observe records one completed request with response time rt.
func (c *Collector) Observe(rt time.Duration) {
	c.N++
	for i, th := range c.Thresholds {
		if rt <= th {
			c.Good[i]++
		}
	}
	c.RTs.Add(rt.Seconds())
	c.Hist.Add(rt.Seconds())
}

// ObserveShed records one request rejected by load shedding (admission
// control or deadline fail-fast). Shed requests are not throughput: they
// never produced a page.
func (c *Collector) ObserveShed() { c.ShedN++ }

// ObserveLate records one completed response that blew its end-to-end
// deadline (the response still counts in Observe; Late is an overlay).
func (c *Collector) ObserveLate() { c.LateN++ }

// Shed returns the number of shed requests observed.
func (c *Collector) Shed() uint64 { return c.ShedN }

// Late returns the number of deadline-violating completions observed.
func (c *Collector) Late() uint64 { return c.LateN }

// SetElapsed records the measurement-window length used for rate
// computations.
func (c *Collector) SetElapsed(d time.Duration) { c.Elapsed = d }

// Total returns the number of requests observed.
func (c *Collector) Total() uint64 { return c.N }

// Throughput returns overall requests per second.
func (c *Collector) Throughput() float64 {
	if c.Elapsed <= 0 {
		return 0
	}
	return float64(c.N) / c.Elapsed.Seconds()
}

// Goodput returns requests per second within the given threshold. The
// threshold must be one passed to NewCollector.
func (c *Collector) Goodput(th time.Duration) float64 {
	if c.Elapsed <= 0 {
		return 0
	}
	for i, t := range c.Thresholds {
		if t == th {
			return float64(c.Good[i]) / c.Elapsed.Seconds()
		}
	}
	panic(fmt.Sprintf("sla: threshold %v not collected", th))
}

// SatisfactionRatio returns the fraction of requests within the threshold
// (the SLO satisfaction the intervention analysis watches), or 1 with no
// requests.
func (c *Collector) SatisfactionRatio(th time.Duration) float64 {
	if c.N == 0 {
		return 1
	}
	for i, t := range c.Thresholds {
		if t == th {
			return float64(c.Good[i]) / float64(c.N)
		}
	}
	panic(fmt.Sprintf("sla: threshold %v not collected", th))
}

// ResponseTimes returns the collected response-time sample (seconds).
func (c *Collector) ResponseTimes() *metrics.Sample { return &c.RTs }

// Histogram returns the Fig. 3(c)-style response-time distribution.
func (c *Collector) Histogram() *metrics.Histogram { return c.Hist }

// UnmarshalJSON restores a collector from its journal image.
func (c *Collector) UnmarshalJSON(data []byte) error {
	var v collectorJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	if len(v.Good) != len(v.Thresholds) {
		return fmt.Errorf("sla: collector with %d thresholds and %d good counters", len(v.Thresholds), len(v.Good))
	}
	c.collectorJSON = v
	return nil
}

// Revenue computes provider revenue under a simple earning/penalty model:
// earn per good request, pay penalty per bad request (paper §II-B).
func (c *Collector) Revenue(th time.Duration, earning, penalty float64) float64 {
	if c.Elapsed <= 0 {
		return 0
	}
	good := c.Goodput(th) * c.Elapsed.Seconds()
	bad := float64(c.N) - good
	return good*earning - bad*penalty
}
