package experiment

// Elastic experiments: open-system trials over day-shaped traffic traces
// with a live reallocation policy (internal/adaptive) resizing every soft
// pool mid-run. ElasticSweep crosses policies with traces — including the
// STATIC baseline, which holds the build-time allocation — and scores each
// cell on goodput per soft-resource-unit, the efficiency metric under which
// an elastic policy must beat the best static allocation to earn its keep.

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

// ElasticTrace is one named traffic trace of the sweep grid.
type ElasticTrace struct {
	Name string
	Spec trace.ArrivalSpec
}

// ElasticSweepConfig describes an elastic-vs-static campaign.
type ElasticSweepConfig struct {
	// Run is the base trial: topology, protocol, thresholds, state/obs
	// wiring. Run.Arrivals is ignored (set per trace).
	Run RunConfig

	// Controller carries the shared policy knobs; Policy is overridden per
	// grid point. When Controller.UsersAt is nil it is wired from each
	// trace's known schedule (SOFTMAX needs it).
	Controller adaptive.ElasticConfig

	// Policies and Traces span the grid. PolicyStatic runs with no
	// controller attached.
	Policies []adaptive.Policy
	Traces   []ElasticTrace

	// Window is the timeline bucket width (default 10s).
	Window time.Duration
	// GoodputThreshold classifies a response as goodput (default 1s).
	GoodputThreshold time.Duration
}

func (c *ElasticSweepConfig) applyDefaults() {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.GoodputThreshold <= 0 {
		c.GoodputThreshold = time.Second
	}
	c.Run.applyDefaults()
}

// ElasticResult is the outcome of one (policy, trace) trial. It is the
// journaled payload: a resumed sweep restores it verbatim, so the decision
// log is byte-identical across resumes.
type ElasticResult struct {
	Policy adaptive.Policy `json:"policy"`
	Trace  string          `json:"trace"`

	Throughput float64 `json:"throughput"` // completions/s over the window
	Goodput    float64 `json:"goodput"`    // in-threshold successes/s
	Errors     uint64  `json:"errors"`
	Shed       uint64  `json:"shed"`
	Late       uint64  `json:"late"`

	// MeanUnits is the time-averaged allocated soft units over the
	// measurement window (exact: integrated from the decision log), and
	// GoodputPerUnit the efficiency score Goodput/MeanUnits.
	MeanUnits      float64 `json:"mean_units"`
	GoodputPerUnit float64 `json:"goodput_per_unit"`

	Decisions   []adaptive.ElasticDecision `json:"decisions,omitempty"`
	DecisionLog string                     `json:"decision_log,omitempty"`

	// Timeline has one point per window. Its gauge is the allocated soft
	// units at the window start.
	Timeline []WindowPoint `json:"timeline,omitempty"`
}

// Describe summarizes the trial in one line.
func (r *ElasticResult) Describe() string {
	return fmt.Sprintf("%-8s %-8s goodput %7.1f req/s  mean units %6.1f  goodput/unit %.4f  decisions %d",
		r.Policy, r.Trace, r.Goodput, r.MeanUnits, r.GoodputPerUnit, len(r.Decisions))
}

// WriteTimelineCSV writes the per-window series, including the allocation
// timeline.
func (r *ElasticResult) WriteTimelineCSV(w io.Writer) error {
	return writeTimelineCSV(w, r.Timeline, errorsColumn, shedColumn, lateColumn, gaugeColumn("units", "%.0f"))
}

// ElasticOutcome is the full sweep grid, policy-major.
type ElasticOutcome struct {
	Policies []adaptive.Policy
	Traces   []string
	Results  []*ElasticResult // index = policy*len(Traces) + trace
}

// result returns the grid cell, or nil.
func (o *ElasticOutcome) result(p adaptive.Policy, trace string) *ElasticResult {
	for pi, pol := range o.Policies {
		if pol != p {
			continue
		}
		for ti, tr := range o.Traces {
			if tr == trace {
				return o.Results[pi*len(o.Traces)+ti]
			}
		}
	}
	return nil
}

// Best returns the trace's highest-efficiency cell (goodput per unit).
func (o *ElasticOutcome) Best(trace string) *ElasticResult {
	var best *ElasticResult
	for _, r := range o.Results {
		if r == nil || r.Trace != trace {
			continue
		}
		if best == nil || r.GoodputPerUnit > best.GoodputPerUnit {
			best = r
		}
	}
	return best
}

// WriteCSV writes the sweep summary table.
func (o *ElasticOutcome) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"trace", "policy", "throughput", "goodput",
		"errors", "shed", "late", "mean_units", "goodput_per_unit", "decisions"}); err != nil {
		return err
	}
	for _, r := range o.Results {
		if r == nil {
			continue
		}
		row := []string{
			r.Trace, string(r.Policy),
			fmt.Sprintf("%.2f", r.Throughput),
			fmt.Sprintf("%.2f", r.Goodput),
			strconv.FormatUint(r.Errors, 10),
			strconv.FormatUint(r.Shed, 10),
			strconv.FormatUint(r.Late, 10),
			fmt.Sprintf("%.2f", r.MeanUnits),
			fmt.Sprintf("%.4f", r.GoodputPerUnit),
			strconv.Itoa(len(r.Decisions)),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// UsersAtFor derives the closed-equivalent population oracle from a trace
// whose schedule is known in advance (nil when it is not): piecewise rates
// map through the open/closed equivalence, a hidden-state MMPP falls back
// to its stationary mean rate.
func UsersAtFor(spec trace.ArrivalSpec) func(time.Duration) int {
	switch s := spec.(type) {
	case trace.PoissonSpec:
		return func(time.Duration) int { return int(rubbos.OpenEquivUsers(s.Rate)) }
	case trace.ScheduleSpec:
		return func(at time.Duration) int { return int(rubbos.OpenEquivUsers(s.RateAt(at))) }
	case trace.MMPPSpec:
		num, den := 0.0, 0.0
		for _, st := range s.States {
			num += st.Rate * st.Mean.Seconds()
			den += st.Mean.Seconds()
		}
		if den <= 0 {
			return nil
		}
		mean := num / den
		return func(time.Duration) int { return int(rubbos.OpenEquivUsers(mean)) }
	}
	return nil
}

// unitsOver integrates the piecewise-constant allocated units over [from,
// to) from the initial allocation and the decision log, returning the
// time-weighted mean. Exact, not sampled: the decision log is the complete
// record of every capacity step.
func unitsOver(initial int, ds []adaptive.ElasticDecision, from, to time.Duration) float64 {
	if to <= from {
		return float64(initial)
	}
	integral, cur, at := 0.0, initial, from
	for _, d := range ds {
		if d.At <= from {
			cur = d.Units
			continue
		}
		if d.At >= to {
			break
		}
		integral += float64(cur) * (d.At - at).Seconds()
		cur, at = d.Units, d.At
	}
	integral += float64(cur) * (to - at).Seconds()
	return integral / (to - from).Seconds()
}

// unitsAt returns the allocated units at one instant.
func unitsAt(initial int, ds []adaptive.ElasticDecision, at time.Duration) int {
	cur := initial
	for _, d := range ds {
		if d.At > at {
			break
		}
		cur = d.Units
	}
	return cur
}

// RunElastic executes one elastic trial: drive the testbed with the trace's
// arrival process, let the policy resize pools live (none for STATIC), and
// report the windowed timeline, the decision log, and the efficiency score.
// Deterministic: a re-run with the same config reproduces the identical
// timeline and a byte-identical decision log.
func RunElastic(cfg ElasticSweepConfig, policy adaptive.Policy, tr ElasticTrace) (*ElasticResult, error) {
	cfg.applyDefaults()
	if tr.Spec == nil {
		return nil, fmt.Errorf("experiment: elastic trace %q has no arrival spec", tr.Name)
	}
	rc := cfg.Run
	rc.Arrivals = tr.Spec
	// The obs snapshot's summary is judged at the goodput threshold, and
	// its Soft label carries the policy and the trace so grid cells do not
	// collide on the same file name.
	rc.Obs.SLA = cfg.GoodputThreshold
	win := &windowing{width: cfg.Window, threshold: cfg.GoodputThreshold}
	var (
		ctl *adaptive.ElasticController
		d   Disturbance
	)
	if policy != adaptive.PolicyStatic {
		ccfg := cfg.Controller
		ccfg.Policy = policy
		if ccfg.UsersAt == nil {
			ccfg.UsersAt = UsersAtFor(tr.Spec)
		}
		d.Arm = func(tb *testbed.Testbed) (err error) {
			ctl, err = adaptive.AttachElastic(tb, ccfg)
			return err
		}
	}
	res, _, err := run(rc, d, win, "-"+strings.ToLower(string(policy))+"-"+tr.Name)
	if err != nil {
		return nil, err
	}

	measureStart, horizon := rc.RampUp, rc.RampUp+rc.Measure
	initialUnits := rc.Testbed.Soft.Units(rc.Testbed.Hardware)
	var decisions []adaptive.ElasticDecision
	if ctl != nil {
		decisions = ctl.Decisions()
	}
	er := &ElasticResult{
		Policy:      policy,
		Trace:       tr.Name,
		Throughput:  res.Throughput(),
		Goodput:     res.Goodput(cfg.GoodputThreshold),
		Errors:      res.Errors,
		Shed:        res.Shed,
		Late:        res.Late,
		MeanUnits:   unitsOver(initialUnits, decisions, measureStart, horizon),
		Decisions:   decisions,
		DecisionLog: adaptive.FormatDecisions(decisions),
		Timeline:    win.points,
	}
	for i := range win.points {
		win.points[i].Gauge = float64(unitsAt(initialUnits, decisions, measureStart+time.Duration(i)*win.width))
	}
	if er.MeanUnits > 0 {
		er.GoodputPerUnit = er.Goodput / er.MeanUnits
	}
	return er, nil
}

// Fingerprint identifies the sweep: its configuration's image and the
// controller's fixed constants, which no field carries.
func (cfg ElasticSweepConfig) Fingerprint() string {
	return FingerprintOf(cfg, fmt.Sprint(adaptive.PeakHold, adaptive.MinPer, adaptive.MaxPer,
		adaptive.GrowFactor, adaptive.ShrinkMargin, adaptive.ShrinkTrigger, adaptive.Temperature))
}

// ElasticSweep runs every (policy, trace) grid cell, fanning out, journaling,
// and resuming like every other campaign: a completed cell is stored as its
// full ElasticResult and restored verbatim on resume, so resumed decision
// logs are byte-identical to the original run's.
func ElasticSweep(cfg ElasticSweepConfig) (*ElasticOutcome, error) {
	cfg.applyDefaults()
	if len(cfg.Policies) == 0 || len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("experiment: elastic sweep needs at least one policy and one trace")
	}
	out := &ElasticOutcome{Policies: append([]adaptive.Policy(nil), cfg.Policies...)}
	for _, tr := range cfg.Traces {
		out.Traces = append(out.Traces, tr.Name)
	}
	cell := func(i int) (adaptive.Policy, ElasticTrace) {
		return cfg.Policies[i/len(cfg.Traces)], cfg.Traces[i%len(cfg.Traces)]
	}
	var err error
	out.Results, err = Outs(RunCampaign(cfg.Run, Campaign[*ElasticResult]{
		Kind: "elastic",
		Axes: []string{cfg.Fingerprint()},
		N:    len(cfg.Policies) * len(cfg.Traces),
		Key: func(i int) string {
			policy, tr := cell(i)
			return fmt.Sprintf("policy=%s trace=%s", policy, tr.Name)
		},
		Run: func(i int) (*ElasticResult, error) {
			policy, tr := cell(i)
			return RunElastic(cfg, policy, tr)
		},
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}
