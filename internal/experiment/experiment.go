// Package experiment runs measured trials against simulated n-tier
// topologies: single experiments (ramp-up, measured runtime, monitored
// servers — the paper's 8-minute ramp / 12-minute runtime protocol),
// workload sweeps, and soft-allocation sweeps, producing the data behind
// every table and figure of the paper.
package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/jvm"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/resource"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
	"github.com/softres/ntier/internal/trace"
)

// RunConfig describes one experiment trial.
type RunConfig struct {
	Testbed testbed.Options
	Users   int

	// Workload shape; zero values take the paper defaults.
	Mix         *rubbos.Matrix
	ThinkMean   time.Duration
	ClientNodes int

	// Arrivals, when set, replaces the closed-loop user population with an
	// open-system arrival process (Users and ThinkMean are then ignored):
	// requests arrive on the spec's schedule regardless of completions, so
	// offered load can exceed capacity. See trace.Poisson, trace.FlashCrowd,
	// trace.MMPP.
	Arrivals trace.ArrivalSpec

	// Deadline, when positive on an open-system trial, stamps every request
	// with an end-to-end response budget: tiers fail fast once the budget
	// cannot cover their recent service estimate (counted as shed, not
	// error), and responses past the budget count as late.
	Deadline time.Duration

	// Trial protocol. The paper runs 8-minute ramps and 12-minute
	// runtimes; the defaults are scaled down for fast simulation and can
	// be raised to paper scale via `ntier figures -full`.
	RampUp  time.Duration // default 40s
	Measure time.Duration // default 60s

	// Thresholds for the SLA collector (default sla.StandardThresholds).
	Thresholds []time.Duration

	// Timeline enables the Fig. 7/8 per-second Apache instrumentation.
	Timeline bool

	// WindowUtil fills Result.UtilSeries from the obs recorder's per-node
	// CPU series (attached even without ObsDir, and never decimated here),
	// feeding obs.ClassifyWindows' multi-bottleneck diagnosis.
	WindowUtil bool

	// TraceEvery samples one request in N for per-phase tracing (0 = off);
	// TraceKeep bounds retained traces (default 16).
	TraceEvery uint64
	TraceKeep  int

	// ObsDir, when set, attaches the run-wide observability recorder
	// (internal/obs) to every trial: per-node CPU/GC/disk timelines, pool
	// occupancy and wait-queue series, lingering-close worker counts —
	// written as one JSON snapshot per trial into the directory, readable
	// by `ntier report`. Sampling is pure-read and non-perturbing:
	// results are byte-identical with and without it. Obs holds the
	// recorder settings (grid, memory bound, SLA); its zero value takes
	// the defaults. Journal-restored trials are not re-recorded.
	ObsDir string
	Obs    obs.Config

	// Parallelism bounds the worker pool that sweeps fan independent
	// trials out on (0 = one worker per CPU, 1 = serial). It does not
	// affect a single Run, and sweep output is byte-identical at every
	// setting.
	Parallelism int

	// Ctx, when set, cancels execution: Run refuses to start once the
	// context is done, a running simulation is interrupted at its next
	// event, and sweeps stop claiming new trials. Cancellation surfaces
	// as the context's own error.
	Ctx context.Context

	// TrialTimeout is a per-trial wall-clock watchdog (0 = none): a DES
	// run exceeding it is interrupted and the trial fails with
	// *TimeoutError instead of wedging the worker pool.
	TrialTimeout time.Duration

	// State, when set, makes sweeps and tuner ramps crash-safe: each
	// completed trial is appended to a write-ahead journal under the
	// state directory, and a re-run (see OpenState's resume) restores
	// journaled trials instead of simulating them. Single Runs are not
	// journaled.
	State *State

	// OnTrial, when set, is invoked as each sweep trial resolves: key
	// identifies the trial, restored reports a journal hit (no
	// simulation ran), err carries a per-trial failure (nil on success).
	// Workers call it concurrently; keep it fast and synchronized.
	OnTrial func(key string, restored bool, err error)
}

func (c *RunConfig) applyDefaults() {
	if c.Mix == nil {
		c.Mix = rubbos.BrowseOnlyMix()
	}
	if c.ThinkMean == 0 {
		c.ThinkMean = 7 * time.Second
	}
	if c.ClientNodes == 0 {
		c.ClientNodes = 2
	}
	if c.RampUp == 0 {
		c.RampUp = 40 * time.Second
	}
	if c.Measure == 0 {
		c.Measure = 60 * time.Second
	}
	if len(c.Thresholds) == 0 {
		c.Thresholds = sla.StandardThresholds
	}
}

// ServerStats is the per-server monitoring record of one trial.
type ServerStats struct {
	Name     string
	Tier     string
	CPUUtil  float64 // total CPU utilization incl. GC
	DiskUtil float64 // disk busy fraction (database nodes; 0 elsewhere)
	GC       jvm.Stats
	Pools    []resource.PoolStats

	// Request-log aggregates (the paper's per-server logging).
	RTT  time.Duration
	TP   float64
	Jobs float64 // Little's-law estimate X*R

	// Resilience holds shed/retry/timeout/breaker counters when the tier
	// has a resilience layer attached (nil otherwise).
	Resilience *tier.ResilienceStats
}

// Pool returns the stats of the pool whose name ends in suffix, or nil.
// The suffix must match a whole path segment: a "conns" query matches
// "tomcat1/conns" but never a pool named "tomcat1/db-conns".
func (s *ServerStats) Pool(suffix string) *resource.PoolStats {
	if suffix == "" {
		return nil
	}
	for i := range s.Pools {
		name := s.Pools[i].Name
		if !strings.HasSuffix(name, suffix) {
			continue
		}
		if len(name) == len(suffix) || suffix[0] == '/' || name[len(name)-len(suffix)-1] == '/' {
			return &s.Pools[i]
		}
	}
	return nil
}

// ApacheTimeline is the Fig. 7/8 per-second view of one web server.
type ApacheTimeline struct {
	Processed      []float64 // requests completed per second
	PTTotalMS      []float64 // mean worker busy time per request (ms)
	PTConnectMS    []float64 // mean time interacting with Tomcat (ms)
	ActiveRaw      []float64 // sampled busy workers
	ConnectRaw     []float64 // sampled workers interacting with Tomcat
	SampleEverySec float64
}

// Result is the full outcome of one trial. Its JSON form is the journal
// image: every field except Config, whose closure-typed hooks cannot
// round-trip (RunTrials reattaches it on restore), and Obs.
type Result struct {
	Config RunConfig `json:"-"`

	SLA *sla.Collector

	// Errors counts requests answered with an error or degraded response
	// during the measurement window (0 in a fault-free trial). Shed
	// requests are counted separately.
	Errors uint64

	// Shed counts requests rejected by load shedding during the window —
	// admission control and deadline fail-fast. Shed requests are refused
	// cheaply and deliberately; they are neither goodput nor errors.
	Shed uint64

	// Late counts responses that completed but blew their end-to-end
	// deadline (0 unless RunConfig.Deadline is set).
	Late uint64

	// Abandoned counts sessions abandoned over slow responses during the
	// window (0 unless the closed-loop client models patience).
	Abandoned uint64

	Apache, Tomcat, CJDBC, MySQL []ServerStats

	Timeline *ApacheTimeline // non-nil when RunConfig.Timeline

	// UtilSeries holds per-window CPU utilization per node (incl. GC),
	// keyed by node name: the obs recorder's "<node>/cpu" series on its
	// grid (Obs.Interval, default one second). Non-nil when
	// RunConfig.WindowUtil; journaled, so a restored trial is diagnosed
	// from it without re-running.
	UtilSeries map[string][]float64

	// Traces holds sampled per-request phase traces when
	// RunConfig.TraceEvery > 0.
	Traces []*trace.Trace

	// Obs is the observability snapshot recorded when RunConfig.ObsDir is
	// set (also written to the directory). It is not journaled: a
	// journal-restored trial has a nil Obs.
	Obs *obs.TrialObs `json:"-"`
}

// Throughput returns overall requests/s during the measurement window.
func (r *Result) Throughput() float64 { return r.SLA.Throughput() }

// Goodput returns requests/s within the threshold.
func (r *Result) Goodput(th time.Duration) float64 { return r.SLA.Goodput(th) }

// MeanRT returns the mean response time over the window.
func (r *Result) MeanRT() time.Duration {
	return time.Duration(r.SLA.ResponseTimes().Mean() * float64(time.Second))
}

// Servers returns all per-server stats in tier order.
func (r *Result) Servers() []ServerStats {
	out := make([]ServerStats, 0, len(r.Apache)+len(r.Tomcat)+len(r.CJDBC)+len(r.MySQL))
	out = append(out, r.Apache...)
	out = append(out, r.Tomcat...)
	out = append(out, r.CJDBC...)
	out = append(out, r.MySQL...)
	return out
}

// TierCPU returns the mean CPU utilization across a tier's servers.
func TierCPU(ss []ServerStats) float64 {
	if len(ss) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range ss {
		sum += s.CPUUtil
	}
	return sum / float64(len(ss))
}

// Run executes one trial: build the topology, ramp the workload, reset all
// monitors, measure, and collect. A panic anywhere in the trial — the
// build, a simulated process (re-raised by the DES scheduler as a
// *des.ProcPanic), or collection — is recovered into a *PanicError so one
// bad grid point cannot take down a sweep's worker pool. Cancellation via
// Ctx and the TrialTimeout watchdog interrupt the simulation between
// events and shut the testbed down cleanly.
func Run(cfg RunConfig) (*Result, error) { return run(cfg, nil, "") }

// run is Run, plus the windowed timeline of a fault scenario, flash crowd
// or elastic day when win is set: its disturbance is armed before the
// workload starts, and its per-window points and gauges are filled in.
// label is appended to the obs snapshot's Soft label.
func run(cfg RunConfig, win *windowing, label string) (res *Result, err error) {
	cfg.applyDefaults()
	if cerr := ctxErr(cfg.Ctx); cerr != nil {
		return nil, cerr
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, newPanicError(r)
		}
	}()
	tb, err := testbed.Build(cfg.Testbed)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	defer Watchdog(cfg.Ctx, cfg.TrialTimeout, tb.Env)()
	if win != nil && win.disturb != nil {
		if err := win.disturb(tb); err != nil {
			return nil, err
		}
	}
	m, err := startMeasurement(cfg, tb, win, label)
	if err != nil {
		return nil, err
	}
	if err := runLegs(cfg, tb.Env, tb.ResetStats); err != nil {
		return nil, err
	}
	return m.result()
}

// runLegs runs a trial on env: the ramp leg, then reset, which clears every
// monitor so only the runtime window counts, then the measure leg. After
// each leg it checks whether the watchdog or a cancellation interrupted the
// simulation; the caller's deferred shutdown unwinds the environment.
func runLegs(cfg RunConfig, env *des.Env, reset func()) error {
	env.Run(cfg.RampUp)
	if err := trialAborted(cfg, env); err != nil {
		return err
	}
	reset()
	env.Run(cfg.RampUp + cfg.Measure)
	return trialAborted(cfg, env)
}

// measurement is one testbed's share of a trial: the workload and the
// collector its completions feed, and the monitors read once the legs
// have run. A plain trial has one; a fleet trial has one per tenant over
// the shared environment.
type measurement struct {
	cfg   RunConfig
	tb    *testbed.Testbed
	label string // appended to the obs snapshot's Soft label

	collector     *sla.Collector
	errCount      uint64
	w             *rubbos.Workload
	abandonedBase uint64
	tracer        *trace.Tracer
	timeline      *ApacheTimeline
	rec           *obs.Recorder
}

// startMeasurement starts cfg's workload on tb and arms every monitor of
// the measurement window that opens at cfg.RampUp. cfg has its defaults
// applied.
func startMeasurement(cfg RunConfig, tb *testbed.Testbed, win *windowing, label string) (*measurement, error) {
	m := &measurement{cfg: cfg, tb: tb, label: label, collector: sla.NewCollector(cfg.Thresholds)}
	measureStart := cfg.RampUp
	if win != nil {
		// A partial last window would have its closing gauge past the
		// horizon, never read, and its goodput divided by a full width.
		if cfg.Measure%win.width != 0 {
			return nil, fmt.Errorf("experiment: measure %v is not a whole number of %v windows", cfg.Measure, win.width)
		}
		win.start(cfg.Measure)
	}

	ccfg := rubbos.ClientConfig{
		Users:       cfg.Users,
		ClientNodes: cfg.ClientNodes,
		ThinkMean:   cfg.ThinkMean,
		RampUp:      cfg.RampUp / 2, // users all active well before measuring
		Matrix:      cfg.Mix,
		Seed:        cfg.Testbed.Seed,
	}
	if cfg.TraceEvery > 0 {
		m.tracer = trace.NewTracer(cfg.TraceEvery, cfg.TraceKeep)
		ccfg.Tracer = m.tracer
	}
	collect := func(it *rubbos.Interaction, issued, rt time.Duration, rerr error) {
		shed := false
		if rerr != nil {
			k, ok := tier.ErrKind(rerr)
			shed = ok && (k == tier.FailShed || k == tier.FailDeadline)
		}
		late := rerr == nil && cfg.Deadline > 0 && rt > cfg.Deadline
		if win != nil {
			win.observe(issued+rt-measureStart, rt, rerr != nil, shed, late)
		}
		if issued < measureStart {
			return
		}
		switch {
		case shed:
			// Shed requests were refused cheaply and deliberately —
			// count them apart from errors so overload protection is
			// visible, not hidden inside the failure column.
			m.collector.ObserveShed()
		case rerr != nil:
			// Error responses are not goodput; count them separately.
			m.errCount++
		default:
			m.collector.Observe(rt)
			if late {
				m.collector.ObserveLate()
			}
		}
	}
	var err error
	if cfg.Arrivals != nil {
		m.w, err = tb.StartOpenWorkload(rubbos.OpenConfig{
			Arrivals:    cfg.Arrivals,
			ClientNodes: cfg.ClientNodes,
			Matrix:      cfg.Mix,
			Seed:        cfg.Testbed.Seed,
			Tracer:      m.tracer,
			Deadline:    cfg.Deadline,
		}, collect)
	} else {
		m.w, err = tb.StartWorkload(ccfg, collect)
	}
	if err != nil {
		return nil, err
	}
	// Baseline the abandonment counter one tie-breaking nanosecond after the
	// ramp-end ResetStats so only window abandonments count (pure read).
	tb.Env.At(measureStart+time.Nanosecond, func() { m.abandonedBase = m.w.Abandoned() })
	if win != nil && win.gauge != nil {
		atBoundaries(tb.Env, measureStart, win.width, len(win.gauges), func(i int) { win.gauges[i] = win.gauge(tb) })
	}

	if cfg.Timeline {
		for _, a := range tb.Apaches {
			a.EnableTimeline(measureStart, time.Second)
		}
		// The Fig. 7/8 parallelism samples: busy workers and workers
		// interacting with Tomcat, every second through the horizon.
		a, n := tb.Apaches[0], int(cfg.Measure/time.Second)+1
		tl := &ApacheTimeline{SampleEverySec: 1, ActiveRaw: make([]float64, 0, n), ConnectRaw: make([]float64, 0, n)}
		atBoundaries(tb.Env, measureStart, time.Second, n, func(int) {
			tl.ActiveRaw = append(tl.ActiveRaw, float64(a.Workers.InUse()))
			tl.ConnectRaw = append(tl.ConnectRaw, float64(a.Connecting()))
		})
		m.timeline = tl
	}
	if cfg.WindowUtil {
		// UtilSeries keeps every window: lift the recorder's memory bound
		// past the window count so it never decimates.
		iv := cfg.Obs.Interval
		if iv <= 0 {
			iv = time.Second
		}
		m.cfg.Obs.MaxSamples = max(cfg.Obs.MaxSamples, int(cfg.Measure/iv)+2)
	}
	if cfg.WindowUtil || cfg.ObsDir != "" {
		m.rec = obs.Attach(tb, measureStart, m.cfg.Obs)
	}
	return m, nil
}

// result collects the measurement once the legs have run: the window's
// SLA and error counts, every server's monitors, the timeline and traces,
// and the obs snapshot (written to ObsDir when set).
func (m *measurement) result() (*Result, error) {
	cfg, tb := m.cfg, m.tb
	m.collector.SetElapsed(cfg.Measure)
	res := &Result{
		Config: cfg, SLA: m.collector, Errors: m.errCount,
		Shed: m.collector.Shed(), Late: m.collector.Late(),
		Abandoned: m.w.Abandoned() - m.abandonedBase,
	}
	res.Apache, res.Tomcat, res.CJDBC, res.MySQL = collectStats(tb)

	if tl := m.timeline; tl != nil {
		processed, ptTotal, ptConn := tb.Apaches[0].Timeline()
		tl.Processed = processed.Rates()
		for i := 0; i < ptTotal.Len(); i++ {
			tl.PTTotalMS = append(tl.PTTotalMS, ptTotal.Mean(i))
			tl.PTConnectMS = append(tl.PTConnectMS, ptConn.Mean(i))
		}
		res.Timeline = tl
	}
	if m.tracer != nil {
		res.Traces = m.tracer.Traces()
	}
	if m.rec != nil {
		sla := cfg.Obs.SLA
		if sla <= 0 {
			sla = 2 * time.Second
		}
		snap := m.rec.Snapshot(Summarize(res, sla))
		if cfg.WindowUtil {
			res.UtilSeries = make(map[string][]float64)
			for _, s := range snap.Series {
				if node, ok := strings.CutSuffix(s.Name, "/cpu"); ok && len(s.Values) > 0 {
					res.UtilSeries[node] = s.Values
				}
			}
		}
		if cfg.ObsDir != "" {
			snap.Hardware = cfg.Testbed.Hardware.String()
			snap.Soft = cfg.Testbed.Soft.String() + m.label
			// An open trial has no population: it is labelled with its
			// peak rate's closed equivalent, so trials at different rates
			// keep apart.
			snap.Workload = cfg.Users
			if cfg.Arrivals != nil {
				snap.Workload = int(rubbos.OpenEquivUsers(cfg.Arrivals.MaxRate()))
			}
			snap.Summary.Workload = snap.Workload
			snap.Seed = cfg.Testbed.Seed
			if werr := obs.WriteFile(cfg.ObsDir, snap); werr != nil {
				return nil, werr
			}
			res.Obs = snap
		}
	}
	return res, nil
}

// collectStats reads every server's monitors for the window that started at
// the last ResetStats.
func collectStats(tb *testbed.Testbed) (apache, tomcat, cjdbc, mysql []ServerStats) {
	now := tb.Env.Now()
	for _, a := range tb.Apaches {
		apache = append(apache, ServerStats{
			Name: a.Node.Name(), Tier: "apache",
			CPUUtil: a.Node.Utilization(),
			Pools:   []resource.PoolStats{a.Workers.Stats()},
			RTT:     a.Log().MeanRT(), TP: a.Log().Throughput(now), Jobs: a.Log().Jobs(now),
			Resilience: a.Resilience(),
		})
	}
	for _, tc := range tb.Tomcats {
		tomcat = append(tomcat, ServerStats{
			Name: tc.Node.Name(), Tier: "tomcat",
			CPUUtil: tc.Node.Utilization(),
			GC:      tc.JVM.Stats(),
			Pools:   []resource.PoolStats{tc.Threads.Stats(), tc.Conns.Stats()},
			RTT:     tc.Log().MeanRT(), TP: tc.Log().Throughput(now), Jobs: tc.Log().Jobs(now),
			Resilience: tc.Resilience(),
		})
	}
	for _, c := range tb.CJDBCs {
		cjdbc = append(cjdbc, ServerStats{
			Name: c.Node.Name(), Tier: "cjdbc",
			CPUUtil: c.Node.Utilization(),
			GC:      c.JVM.Stats(),
			RTT:     c.Log().MeanRT(), TP: c.Log().Throughput(now), Jobs: c.Log().Jobs(now),
		})
	}
	for _, m := range tb.MySQLs {
		st := ServerStats{
			Name: m.Node.Name(), Tier: "mysql",
			CPUUtil: m.Node.Utilization(),
			RTT:     m.Log().MeanRT(), TP: m.Log().Throughput(now), Jobs: m.Log().Jobs(now),
		}
		if d := m.Node.Disk(); d != nil {
			st.DiskUtil = d.Utilization()
		}
		mysql = append(mysql, st)
	}
	return apache, tomcat, cjdbc, mysql
}

// Describe summarizes a result in one line (used by the CLIs). Trials that
// saw error or degraded responses report the count — badput must not hide
// behind the goodput numbers.
func (r *Result) Describe() string {
	load := fmt.Sprintf("N=%d", r.Config.Users)
	if r.Config.Arrivals != nil {
		load = r.Config.Arrivals.String()
	}
	s := fmt.Sprintf("%s %s %s: TP %.1f req/s, goodput(2s) %.1f, goodput(1s) %.1f, goodput(0.5s) %.1f, mean RT %s",
		r.Config.Testbed.Hardware, r.Config.Testbed.Soft, load,
		r.Throughput(),
		r.Goodput(2*time.Second), r.Goodput(time.Second), r.Goodput(500*time.Millisecond),
		r.MeanRT().Round(time.Millisecond))
	if r.Errors > 0 {
		s += fmt.Sprintf(", errors %d", r.Errors)
	}
	if r.Shed > 0 {
		s += fmt.Sprintf(", shed %d", r.Shed)
	}
	if r.Abandoned > 0 {
		s += fmt.Sprintf(", abandoned %d", r.Abandoned)
	}
	if r.Late > 0 {
		s += fmt.Sprintf(", late %d", r.Late)
	}
	return s
}
