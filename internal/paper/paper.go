// Package paper declares the paper's evaluation (§III–IV: Figs. 2–8 and
// 10, Table I, and the mechanism ablations behind them) as one table. Each
// entry names its configurations and workload grid, renders the `ntier
// figures` text, and declares its readings: the workloads and pool sizes at
// which the root benchmarks take its named numbers and the headline tests
// take their trials. A number reads declared workloads only, so a
// full-grid run and a reading-only run give the same number at the same
// horizon.
package paper

import (
	"fmt"
	"slices"
	"time"

	"github.com/softres/ntier/internal/core"
	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/testbed"
)

// Horizon is a trial protocol: the warm-up, the measured window and the
// seed.
type Horizon struct {
	RampUp, Measure time.Duration
	Seed            uint64
}

// The horizons the table is read at. `ntier figures` keeps its -seed flag.
var (
	Default  = Horizon{30 * time.Second, 45 * time.Second, 1} // ntier figures
	Full     = Horizon{8 * time.Minute, 12 * time.Minute, 1}  // ntier figures -full: the paper's protocol
	Bench    = Horizon{15 * time.Second, 30 * time.Second, 1} // the root benchmarks
	Headline = Horizon{12 * time.Second, 20 * time.Second, 2} // the root headline tests
)

// Config returns a trial configuration at h with every other field zero.
func (h Horizon) Config() experiment.RunConfig {
	return experiment.RunConfig{Testbed: testbed.Options{Seed: h.Seed}, RampUp: h.RampUp, Measure: h.Measure}
}

// Series is one configuration family of a figure, run over its workload
// grid: a hardware shape and a base allocation and, for a pool-size study,
// the pool it varies and the sizes it takes.
type Series struct {
	Hardware, Soft string
	Vary           func(testbed.SoftAlloc, int) testbed.SoftAlloc // nil: Soft as given
	Sizes          []int
	Users          []int                  // the workload grid, ascending
	Ablate         func(*testbed.Options) // switches a mechanism off; nil: none
	Timeline       bool                   // the Fig. 7/8 per-second Apache instrumentation
}

// Entry is one figure or table of the evaluation. It sweeps each series
// over its grid, or runs Algorithm 1 on it when tune is set.
type Entry struct {
	Name     string // the -only name and results/<Name>.txt
	tune     bool
	Series   []Series
	Readings []Reading
	Render   func(d *Data) (string, error)
}

// Reading is where one root benchmark or headline test reads an entry: the
// series, workloads and pool sizes it runs, and the numbers it takes there.
type Reading struct {
	Name    string // Benchmark<Name>, or the headline test's claim
	Series  []int  // indices into the entry's Series; nil: all
	Users   []int
	Sizes   []int // of the varied series; nil: each series' own
	Numbers []Number
}

// Number is one named number of a reading, under the root benchmarks'
// metric name.
type Number struct {
	Name string
	Of   func(d *Data) float64
}

// Data is what running an entry produced: per series, the allocation
// points of its sweep (one point when it varies no pool), or its Table I
// report.
type Data struct {
	entry   *Entry
	points  [][]experiment.AllocPoint
	reports []*core.Report
	sizes   [][]int
}

// At returns the trial of series s at the pool size (0 when s varies no
// pool) and workload. A point that did not run is a mistake in the table,
// and panics.
func (d *Data) At(s, size, users int) *experiment.Result {
	if j := slices.Index(d.sizes[s], size); j >= 0 {
		c := d.points[s][j].Curve
		if i := slices.Index(c.Users, users); i >= 0 {
			return c.Results[i]
		}
	}
	panic(fmt.Sprintf("paper: %s series %d ran no trial at size %d, workload %d", d.entry.Name, s, size, users))
}

// Trials returns r's trials from d, a run of r, in order: series, then
// size, then workload.
func (r *Reading) Trials(d *Data) []*experiment.Result {
	var out []*experiment.Result
	for s := range d.sizes {
		for _, size := range d.sizes[s] {
			for _, u := range r.Users {
				out = append(out, d.At(s, size, u))
			}
		}
	}
	return out
}

// Text runs every series of e over its full grid at base's protocol and
// renders the figure.
func (e *Entry) Text(base experiment.RunConfig) (string, error) {
	d, err := e.run(base, &Reading{})
	if err != nil {
		return "", err
	}
	return e.Render(d)
}

// Read runs the named reading's trials alone, at base's protocol.
func Read(base experiment.RunConfig, name string) (*Reading, *Data, error) {
	for _, e := range Table {
		for i := range e.Readings {
			if r := &e.Readings[i]; r.Name == name {
				d, err := e.run(base, r)
				return r, d, err
			}
		}
	}
	return nil, nil, fmt.Errorf("paper: no reading %q", name)
}

// run runs r's series at its workloads and sizes; a nil field takes each
// series' own.
func (e *Entry) run(base experiment.RunConfig, r *Reading) (*Data, error) {
	n := len(e.Series)
	d := &Data{entry: e, points: make([][]experiment.AllocPoint, n), reports: make([]*core.Report, n), sizes: make([][]int, n)}
	for s, sr := range e.Series {
		if r.Series != nil && !slices.Contains(r.Series, s) {
			continue
		}
		cfg, err := sr.config(base)
		if err != nil {
			return nil, err
		}
		users := or(r.Users, sr.Users)
		d.sizes[s] = []int{0}
		if sr.Vary != nil {
			d.sizes[s] = or(r.Sizes, sr.Sizes)
		}
		switch {
		case e.tune:
			d.reports[s], err = core.Tune(core.Config{Base: cfg})
		case sr.Vary == nil:
			var c *experiment.Curve
			c, err = experiment.WorkloadSweep(cfg, users)
			d.points[s] = []experiment.AllocPoint{{Soft: cfg.Testbed.Soft, Curve: c}}
		default:
			d.points[s], err = experiment.AllocSweep(cfg, users, d.sizes[s], sr.Vary)
		}
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// or returns a, or b when a is nil.
func or(a, b []int) []int {
	if a != nil {
		return a
	}
	return b
}

// config returns base with s's hardware, allocation, ablation and
// instrumentation.
func (s Series) config(base experiment.RunConfig) (experiment.RunConfig, error) {
	h, err := testbed.ParseHardware(s.Hardware)
	if err != nil {
		return base, err
	}
	soft, err := testbed.ParseSoftAlloc(s.Soft)
	if err != nil {
		return base, err
	}
	base.Testbed.Hardware, base.Testbed.Soft, base.Timeline = h, soft, s.Timeline
	if s.Ablate != nil {
		s.Ablate(&base.Testbed)
	}
	return base, nil
}

// curves returns the curves of the series' points in order, failing on the
// first per-trial error: renderers dereference individual points.
func curves(points ...[]experiment.AllocPoint) ([]*experiment.Curve, error) {
	var out []*experiment.Curve
	for _, ps := range points {
		for _, p := range ps {
			if err := p.Curve.Err(); err != nil {
				return nil, fmt.Errorf("alloc %s: %w", p.Soft, err)
			}
			out = append(out, p.Curve)
		}
	}
	return out, nil
}

// span returns lo, lo+step, ... up to hi.
func span(lo, hi, step int) []int {
	var out []int
	for n := lo; n <= hi; n += step {
		out = append(out, n)
	}
	return out
}

// grid returns a figure's workload grid: its span plus the workloads its
// readings take, ascending.
func grid(users []int, extra ...int) []int {
	out := append(users, extra...)
	slices.Sort(out)
	return out
}

// at is the number f of one trial.
func at(name string, s, size, users int, f func(*experiment.Result) float64) Number {
	return Number{name, func(d *Data) float64 { return f(d.At(s, size, users)) }}
}

// best is the largest f over the workloads, 0 when none is positive, as
// Curve.MaxThroughput reads it.
func best(name string, s, size int, users []int, f func(*experiment.Result) float64) Number {
	return Number{name, func(d *Data) float64 {
		v := 0.0
		for _, u := range users {
			if x := f(d.At(s, size, u)); x > v {
				v = x
			}
		}
		return v
	}}
}

func goodput(th time.Duration) func(*experiment.Result) float64 {
	return func(r *experiment.Result) float64 { return r.Goodput(th) }
}
