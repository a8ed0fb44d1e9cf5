// Package obs is the run-wide observability layer: the simulated
// counterpart of the paper's monitoring stack (§II-C: SysStat hardware
// monitors plus per-server log analysis). A Recorder samples per-node CPU
// utilization, JVM garbage-collection overhead, disk busy time, soft-pool
// occupancy and wait-queue depth, Apache lingering-close worker counts,
// and C-JDBC busy threads on a fixed simulated-time grid — the series
// behind the paper's Figs. 2–8 — with bounded memory (stride decimation
// for paper-scale runs). The Recorder schedules nothing: the trial that
// owns it reads it on the trial's one per-second boundary grid. On top of
// the series, the Bottleneck analyzer (Judge, Steps, DetectSignatures)
// implements the paper's critical-resource detection: per workload step
// it attributes the most-utilized
// hardware resource, flags the Fig. 2 software-bottleneck signature
// (capped goodput while every hardware resource idles), the Fig. 5
// over-allocation signature (GC inflation consuming the critical CPU),
// and the Fig. 8 buffering starvation (downstream CPU falling as load
// rises); ClassifyWindows reads the per-window CPU series for the
// multi-bottleneck patterns (single, concurrent, oscillatory).
//
// Sampling is provably non-perturbing: every probe is a pure read
// (resource.CPU, resource.Pool, jvm.JVM, and the tier gauges never mutate
// on read), so attaching a Recorder cannot change a trial's outcome —
// sweep CSVs are byte-identical with and without it (asserted by tests).
package obs

import (
	"time"

	"github.com/softres/ntier/internal/resource"
	"github.com/softres/ntier/internal/testbed"
)

// SampleInterval is the recorder's raw sampling grid in simulated time:
// the paper's SysStat granularity.
const SampleInterval = time.Second

// Config tunes the recorder. Zero values take the defaults.
type Config struct {
	// MaxSamples bounds stored samples per series (default 512, rounded
	// up to even). When a window closes on a full series, adjacent
	// samples are merged pairwise and the stored resolution halves —
	// memory stays bounded for arbitrarily long runs.
	MaxSamples int
	// SLA is the goodput threshold the trial summary reports against
	// (zero means 2s, the paper's response-time bound). The experiment
	// layer reads it when it summarizes a trial; the recorder does not.
	SLA time.Duration
}

func (c *Config) applyDefaults() {
	if c.MaxSamples <= 0 {
		c.MaxSamples = 512
	}
	if c.MaxSamples%2 != 0 {
		c.MaxSamples++
	}
}

// Series kinds. Gauges are instantaneous readings (pool occupancy, queue
// depth, busy threads); rates are per-window means diffed from cumulative
// integrals (CPU utilization, GC share, pool utilization).
const (
	KindGauge = "gauge"
	KindRate  = "rate"
)

// Series is one recorded timeline. Values[i] covers the window
// [Start + i*Interval, Start + (i+1)*Interval) of simulated time, where
// Interval is TrialObs.Interval (the post-decimation effective grid).
type Series struct {
	Name   string    `json:"name"` // e.g. "cjdbc1/cpu", "tomcat1/conns/occ"
	Kind   string    `json:"kind"` // KindGauge or KindRate
	Values []float64 `json:"values"`
}

// probe is one wired sampling point. Reads must be pure.
type probe struct {
	name string
	kind string
	read func() float64 // instant value (gauge) or cumulative integral (rate)
	norm func() float64 // rate divisor beyond window seconds (cores, capacity); nil = 1
	cap1 bool           // clamp to [0,1] (utilization-style rates)
	prev float64        // last integral reading (rate probes)
}

// Recorder samples a testbed's probes on its owner's grid. Create it with
// Attach when the window opens, close each window with Sample, and read
// it with Snapshot after the simulation finishes.
type Recorder struct {
	start  time.Duration
	cfg    Config
	probes []*probe

	stride   int         // raw windows aggregated into one stored sample
	partial  []float64   // per-probe sums of the current aggregation group
	partialN int         // raw windows accumulated in the group
	values   [][]float64 // per-probe stored samples (lockstep lengths)
}

// Attach wires a recorder to every node, pool, JVM, and tier gauge of the
// testbed when a measurement window opens, right after its statistics
// reset: the rate probes take their baselines now. It schedules nothing;
// the caller calls Sample at each boundary now + k·SampleInterval, k ≥ 1.
// Probes are pure reads, so attaching never perturbs the simulation.
func Attach(tb *testbed.Testbed, cfg Config) *Recorder {
	cfg.applyDefaults()
	r := &Recorder{start: tb.Env.Now(), cfg: cfg, stride: 1}

	for _, n := range tb.Nodes() {
		node := n
		cores := float64(node.Spec().Cores)
		r.rate(node.Name()+"/cpu", node.BusyIntegral, func() float64 { return cores }, true)
		if d := node.Disk(); d != nil {
			disk := d
			r.rate(node.Name()+"/disk", disk.BusyIntegral, nil, true)
		}
	}
	for _, a := range tb.Apaches {
		ap := a
		r.pool(ap.Workers)
		r.gauge(ap.Node.Name()+"/finwait", func() float64 { return float64(ap.FinWaiting()) })
		// Shed rate (deadline fail-fasts plus admission drops, per second):
		// the overload-survival view next to the pool's queue-depth gauge,
		// which doubles as the queue-growth series.
		r.rate(ap.Node.Name()+"/shed", func() float64 { return float64(ap.Sheds()) }, nil, false)
	}
	for _, t := range tb.Tomcats {
		tc := t
		r.pool(tc.Threads)
		r.pool(tc.Conns)
		r.rate(tc.Node.Name()+"/gc", tc.JVM.GCTimeIntegral, nil, true)
		r.rate(tc.Node.Name()+"/shed", func() float64 { return float64(tc.DeadlineSheds()) }, nil, false)
	}
	for _, c := range tb.CJDBCs {
		cj := c
		r.gauge(cj.Node.Name()+"/busy", func() float64 { return float64(cj.Busy()) })
		r.rate(cj.Node.Name()+"/gc", cj.JVM.GCTimeIntegral, nil, true)
	}

	r.partial = make([]float64, len(r.probes))
	r.values = make([][]float64, len(r.probes))
	return r
}

// gauge registers an instantaneous probe.
func (r *Recorder) gauge(name string, read func() float64) {
	r.probes = append(r.probes, &probe{name: name, kind: KindGauge, read: read})
}

// rate registers a cumulative-integral probe reported as a per-window mean,
// with its integral now as the baseline.
func (r *Recorder) rate(name string, read, norm func() float64, cap1 bool) {
	r.probes = append(r.probes, &probe{name: name, kind: KindRate, read: read, norm: norm, cap1: cap1, prev: read()})
}

// pool registers the four standard pool series: occupancy gauge,
// wait-queue gauge, windowed utilization, and the capacity gauge — flat for
// static allocations, a step function under the elastic controller, so
// reports can render the allocation timeline next to the attribution.
func (r *Recorder) pool(pl *resource.Pool) {
	p := pl
	r.gauge(p.Name()+"/occ", func() float64 { return float64(p.InUse()) })
	r.gauge(p.Name()+"/queue", func() float64 { return float64(p.Queued()) })
	r.rate(p.Name()+"/util", p.BusyIntegral, func() float64 { return float64(p.Capacity()) }, true)
	r.gauge(p.Name()+"/cap", func() float64 { return float64(p.Capacity()) })
}

// Sample closes one raw window: read every probe, fold the readings into
// the current aggregation group, and store the group mean once `stride`
// raw windows have accumulated — or, on a full series, halve it and keep
// the group open as half of one twice as wide.
func (r *Recorder) Sample() {
	window := SampleInterval.Seconds()
	for i, p := range r.probes {
		var v float64
		switch p.kind {
		case KindGauge:
			v = p.read()
		case KindRate:
			cur := p.read()
			v = (cur - p.prev) / window
			p.prev = cur
			if p.norm != nil {
				if n := p.norm(); n > 0 {
					v /= n
				}
			}
			if p.cap1 {
				if v > 1 {
					v = 1
				}
				if v < 0 {
					v = 0
				}
			}
		}
		r.partial[i] += v
	}
	r.partialN++
	if r.partialN < r.stride {
		return
	}
	if len(r.values) > 0 && len(r.values[0]) == r.cfg.MaxSamples {
		r.decimate()
		return
	}
	for i := range r.probes {
		r.values[i] = append(r.values[i], r.partial[i]/float64(r.stride))
		r.partial[i] = 0
	}
	r.partialN = 0
}

// decimate halves every stored series by pairwise averaging and doubles
// the stride, keeping memory bounded at MaxSamples per series.
func (r *Recorder) decimate() {
	for i, vals := range r.values {
		half := vals[:0]
		for j := 0; j+1 < len(vals); j += 2 {
			half = append(half, (vals[j]+vals[j+1])/2)
		}
		r.values[i] = half
	}
	r.stride *= 2
}

// Snapshot freezes the recorded series into a TrialObs, attaching the
// given summary. A trailing partial aggregation group is flushed as a mean
// over the windows it covers. The recorder itself is left untouched.
func (r *Recorder) Snapshot(summary TrialSummary) *TrialObs {
	t := &TrialObs{
		Interval: (time.Duration(r.stride) * SampleInterval).Seconds(),
		Start:    r.start.Seconds(),
		Summary:  summary,
	}
	for i, p := range r.probes {
		vals := append([]float64(nil), r.values[i]...)
		if r.partialN > 0 {
			vals = append(vals, r.partial[i]/float64(r.partialN))
		}
		t.Series = append(t.Series, Series{Name: p.name, Kind: p.kind, Values: vals})
	}
	return t
}
