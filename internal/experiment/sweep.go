package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/softres/ntier/internal/testbed"
)

// Curve is one goodput-vs-workload series (one line of a paper figure).
// A contained per-trial failure (panic, watchdog timeout) leaves a nil
// entry in Results and the error in the matching Errs slot; the metric
// accessors treat such points as zero.
type Curve struct {
	Label   string
	Users   []int
	Results []*Result
	Errs    []error
}

// Err returns the first per-trial failure in workload order, or nil when
// every point completed. Renderers that index Results directly should
// check this first.
func (c *Curve) Err() error {
	for i, e := range c.Errs {
		if e != nil {
			return fmt.Errorf("experiment: workload %d: %w", c.Users[i], e)
		}
	}
	return nil
}

// WorkloadSweep runs base at each user count and returns the curve. The
// trials are independent, so they fan out across base.Parallelism workers
// (0 = one per CPU); results stay in workload order and are identical to
// a serial sweep.
//
// When base.State is set, completed trials are journaled and a resumed
// sweep restores them instead of re-simulating. Contained per-trial
// failures become error rows (Curve.Errs) while the rest of the sweep
// keeps going; cancellation via base.Ctx aborts between trials.
func WorkloadSweep(base RunConfig, users []int) (*Curve, error) {
	cfgs := make([]RunConfig, len(users))
	for i, u := range users {
		cfgs[i] = base
		cfgs[i].Users = u
	}
	cells, err := RunTrials(base, "workload", []string{fmt.Sprint(users)}, cfgs)
	if err != nil {
		return nil, err
	}
	c := &Curve{
		Label: fmt.Sprintf("%s(%s)", base.Testbed.Hardware, base.Testbed.Soft),
		Users: append([]int(nil), users...),
	}
	c.Results, c.Errs = resultsOf(cells)
	return c, nil
}

// Goodputs returns the series of goodput values at the threshold (zero
// for failed points).
func (c *Curve) Goodputs(th time.Duration) []float64 {
	out := make([]float64, len(c.Results))
	for i, r := range c.Results {
		if r != nil {
			out[i] = r.Goodput(th)
		}
	}
	return out
}

// MaxThroughput returns the highest overall throughput across the sweep —
// the paper's Fig. 10 "max TP" metric. Failed points are skipped.
func (c *Curve) MaxThroughput() float64 {
	best := 0.0
	for _, r := range c.Results {
		if r == nil {
			continue
		}
		if tp := r.Throughput(); tp > best {
			best = tp
		}
	}
	return best
}

// MaxGoodput returns the highest goodput at the threshold across the
// sweep. Failed points are skipped.
func (c *Curve) MaxGoodput(th time.Duration) float64 {
	best := 0.0
	for _, r := range c.Results {
		if r == nil {
			continue
		}
		if g := r.Goodput(th); g > best {
			best = g
		}
	}
	return best
}

// AllocPoint is one (soft allocation, workload-sweep result) pair of a
// pool-size study.
type AllocPoint struct {
	Soft  testbed.SoftAlloc
	Curve *Curve
}

// AllocSweep runs a workload sweep for every size of the pool on axis ax,
// e.g. varying the Tomcat thread pool for Fig. 4 / Fig. 10(a) or the DB
// connection pool for Fig. 5 / Fig. 10(b).
//
// The whole (size x workload) grid is one flat batch of independent
// trials, so base.Parallelism workers stay busy even when a single
// workload axis is shorter than the worker pool.
func AllocSweep(base RunConfig, users []int, sizes []int, ax testbed.Axis) ([]AllocPoint, error) {
	softs := make([]testbed.SoftAlloc, len(sizes))
	var cfgs []RunConfig
	for j, size := range sizes {
		softs[j] = base.Testbed.Soft.With(ax, size)
		for _, u := range users {
			cfg := base
			cfg.Testbed.Soft, cfg.Users = softs[j], u
			cfgs = append(cfgs, cfg)
		}
	}
	// The journal's axes are the allocations the grid runs.
	cells, err := RunTrials(base, "alloc", []string{fmt.Sprint(users), fmt.Sprint(softs)}, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]AllocPoint, len(sizes))
	for j, soft := range softs {
		c := &Curve{
			Label: fmt.Sprintf("%s(%s)", base.Testbed.Hardware, soft),
			Users: append([]int(nil), users...),
		}
		c.Results, c.Errs = resultsOf(cells[j*len(users) : (j+1)*len(users)])
		out[j] = AllocPoint{Soft: soft, Curve: c}
	}
	return out, nil
}

// Table renders rows of figure data as a fixed-width ASCII table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CurveCountTable renders a per-trial counter (errors, shed, abandoned,
// late — any count accessor) for several curves against the shared
// workload axis, keeping failure modes visible next to the goodput tables.
func CurveCountTable(title string, count func(*Result) uint64, curves ...*Curve) *Table {
	return curveTable(title, func(r *Result) string { return fmt.Sprintf("%d", count(r)) }, curves)
}

// CurveTable renders several curves' goodput at one threshold against the
// shared workload axis — the textual form of a paper figure.
func CurveTable(title string, th time.Duration, curves ...*Curve) *Table {
	return curveTable(title, func(r *Result) string { return fmt.Sprintf("%.1f", r.Goodput(th)) }, curves)
}

// curveTable renders one column per curve against the first curve's
// workload axis: cell of each trial, "ERR" for a failed trial, "-" past a
// curve's end.
func curveTable(title string, cell func(*Result) string, curves []*Curve) *Table {
	t := &Table{Title: title, Headers: []string{"workload"}}
	for _, c := range curves {
		t.Headers = append(t.Headers, c.Label)
	}
	if len(curves) == 0 {
		return t
	}
	for i, n := range curves[0].Users {
		row := []string{fmt.Sprintf("%d", n)}
		for _, c := range curves {
			switch {
			case i >= len(c.Results):
				row = append(row, "-")
			case c.Results[i] == nil:
				row = append(row, "ERR")
			default:
				row = append(row, cell(c.Results[i]))
			}
		}
		t.AddRow(row...)
	}
	return t
}
