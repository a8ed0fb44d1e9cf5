package search

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
)

// Options configures one search run.
type Options struct {
	// Base is the trial template: hardware, seed, ramp/measure protocol,
	// and the execution knobs (Parallelism, Ctx, TrialTimeout, ObsDir,
	// State for crash-safe resume). Base.Testbed.Soft is the calibration
	// allocation — run generously provisioned so the utilization law
	// identifies pure demands. Base.Users is ignored; Workloads drives
	// every trial.
	Base experiment.RunConfig

	// The candidate allocations are the cross product of the
	// WebThreads × AppThreads × AppConns axes.
	WebThreads, AppThreads, AppConns []int

	// Workloads is the rung ladder: rung r re-evaluates the survivors at
	// Workloads[r] (sorted ascending, deduplicated).
	Workloads []int

	// SLA is the optimization objective's goodput threshold (default 1s).
	// It must be one of Base.Thresholds (default sla.StandardThresholds).
	SLA time.Duration

	// Budget caps simulation trials, counting the calibration trial and
	// journal-restored trials — a resumed search replays the same
	// decisions the interrupted one would have made, so its output is
	// byte-identical.
	Budget int

	// Keep is the number of candidates admitted to rung 0 after surrogate
	// pre-ranking (0 = as many as Budget affords through the halving).
	Keep int

	// Eta is the halving factor: each rung keeps ceil(n/Eta) survivors
	// (default 2).
	Eta int

	// Log receives the decision log as it is written (nil = collect in
	// Outcome.Log only).
	Log io.Writer
}

func (o *Options) applyDefaults() error {
	if o.SLA == 0 {
		o.SLA = time.Second
	}
	if o.Eta < 2 {
		o.Eta = 2
	}
	if len(o.Workloads) == 0 {
		return fmt.Errorf("search: no workloads")
	}
	if o.Budget < 2 {
		return fmt.Errorf("search: budget %d leaves no trials after calibration", o.Budget)
	}
	if len(o.Base.Thresholds) == 0 {
		o.Base.Thresholds = sla.StandardThresholds
	}
	found := false
	for _, th := range o.Base.Thresholds {
		if th == o.SLA {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("search: SLA %v is not one of the trial thresholds %v", o.SLA, o.Base.Thresholds)
	}
	ws := append([]int(nil), o.Workloads...)
	sort.Ints(ws)
	dedup := ws[:0]
	for i, w := range ws {
		if w <= 0 {
			return fmt.Errorf("search: non-positive workload %d", w)
		}
		if i == 0 || w != ws[i-1] {
			dedup = append(dedup, w)
		}
	}
	o.Workloads = dedup
	return nil
}

// candidates is the cross product of the three allocation axes.
func (o *Options) candidates() ([]testbed.SoftAlloc, error) {
	var cands []testbed.SoftAlloc
	for _, w := range o.WebThreads {
		for _, a := range o.AppThreads {
			for _, c := range o.AppConns {
				soft := testbed.SoftAlloc{WebThreads: w, AppThreads: a, AppConns: c}
				if err := soft.Validate(); err != nil {
					return nil, err
				}
				cands = append(cands, soft)
			}
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("search: no candidate allocations (set the three axes)")
	}
	return cands, nil
}

// Point is one measured (allocation, workload) trial of the search.
type Point struct {
	Soft       testbed.SoftAlloc
	Workload   int
	Units      int // total allocated soft-resource units
	Throughput float64
	Goodputs   []float64 // aligned with Outcome.Thresholds
	MeanRT     time.Duration
}

// FrontierPoint is one Pareto-optimal allocation at one SLA threshold.
type FrontierPoint struct {
	Soft     testbed.SoftAlloc
	Units    int
	Goodput  float64 // best measured goodput across the allocation's trials
	Workload int     // the workload achieving it
}

// Outcome is the result of one search.
type Outcome struct {
	Thresholds []time.Duration
	SLA        time.Duration

	// Best is the allocation with the highest measured goodput at SLA
	// (ties go to fewer units).
	Best         testbed.SoftAlloc
	BestGoodput  float64
	BestWorkload int

	// Points holds every measured trial, sorted by units, allocation,
	// workload.
	Points []Point

	// Frontiers holds the goodput-vs-units Pareto frontier per threshold
	// (ascending units), aligned with Thresholds.
	Frontiers [][]FrontierPoint

	// Trials counts budget consumed; Restored counts the subset replayed
	// from the journal; Cached counts in-process re-uses (free).
	Trials, Restored, Cached int

	// Log is the full decision log: every calibration, ranking, prune,
	// mutation, and budget trim, in order.
	Log []string
}

// evalRec is one resolved (allocation, workload) evaluation.
type evalRec struct {
	point    *Point // nil when the trial failed
	errText  string
	restored bool
	obs      *obs.TrialSummary // mutation-steering summary (nil on failure)
}

// candidate is one allocation in flight, with its surrogate score.
type candidate struct {
	soft  testbed.SoftAlloc
	score float64 // surrogate-predicted goodput at the SLA
}

// searcher carries one run's working state.
type searcher struct {
	opts       Options
	candidates []testbed.SoftAlloc
	axes       []string // journal fingerprint axes: every search knob
	sur        *Surrogate
	out        *Outcome
	used       int
	slaIdx     int
	cache      map[string]*evalRec
}

// Run executes the search: calibrate the surrogate, pre-rank the
// candidates, spend the budget by successive halving over the workload
// ladder with obs-guided mutation, and assemble the Pareto outcome.
func Run(opts Options) (*Outcome, error) {
	if err := opts.applyDefaults(); err != nil {
		return nil, err
	}
	cands, err := opts.candidates()
	if err != nil {
		return nil, err
	}
	s := &searcher{
		opts:       opts,
		candidates: cands,
		axes: []string{fmt.Sprint(opts.Workloads), fmt.Sprint(cands),
			fmt.Sprint(opts.Budget), opts.SLA.String(), fmt.Sprint(opts.Eta), fmt.Sprint(opts.Keep)},
		out:   &Outcome{Thresholds: opts.Base.Thresholds, SLA: opts.SLA},
		cache: make(map[string]*evalRec),
	}
	for i, th := range opts.Base.Thresholds {
		if th == opts.SLA {
			s.slaIdx = i
		}
	}
	if err := s.search(); err != nil {
		return nil, err
	}
	s.assemble()
	return s.out, nil
}

func (s *searcher) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	s.out.Log = append(s.out.Log, line)
	if s.opts.Log != nil {
		fmt.Fprintln(s.opts.Log, line)
	}
}

// evaluate resolves one (allocation, workload) trial per allocation, in
// order: an in-process cache hit is free; the rest run (or replay from the
// journal) in parallel as one campaign and consume budget. The campaign's
// cells come back too: the trials this call resolved, uncached ones in
// order.
func (s *searcher) evaluate(softs []testbed.SoftAlloc, wl int) ([]*evalRec, []experiment.Cell[*experiment.Result], error) {
	var cfgs []experiment.RunConfig
	queued := make(map[string]bool)
	for _, soft := range softs {
		key := cacheKey(soft, wl)
		if _, ok := s.cache[key]; ok || queued[key] {
			s.out.Cached++
			continue
		}
		queued[key] = true
		cfg := s.opts.Base
		cfg.Testbed.Soft, cfg.Users = soft, wl
		cfgs = append(cfgs, cfg)
	}
	cells, err := experiment.RunTrials(s.opts.Base, "search", s.axes, cfgs)
	if err != nil {
		return nil, nil, err
	}
	for i, c := range cells {
		soft := cfgs[i].Testbed.Soft
		rec := &evalRec{restored: c.Restored}
		if c.Err != nil {
			rec.errText = c.Err.Error()
		} else {
			p := &Point{
				Soft:       soft,
				Workload:   wl,
				Units:      soft.Units(cfgs[i].Testbed.Hardware),
				Throughput: c.Out.Throughput(),
				MeanRT:     c.Out.MeanRT(),
			}
			for _, th := range s.out.Thresholds {
				p.Goodputs = append(p.Goodputs, c.Out.Goodput(th))
			}
			rec.point = p
			sum := experiment.Summarize(c.Out, s.opts.SLA)
			rec.obs = &sum
		}
		s.used++
		s.out.Trials++
		if c.Restored {
			s.out.Restored++
		}
		s.cache[cacheKey(soft, wl)] = rec
	}
	recs := make([]*evalRec, len(softs))
	for i, soft := range softs {
		recs[i] = s.cache[cacheKey(soft, wl)]
	}
	return recs, cells, nil
}

// cacheKey identifies one (allocation, workload) evaluation in the cache.
func cacheKey(soft testbed.SoftAlloc, wl int) string { return fmt.Sprintf("%s@%d", soft, wl) }

// search is the optimizer loop.
func (s *searcher) search() error {
	o := &s.opts
	// Calibration: one trial of the base allocation at the lightest
	// workload, below the knee, where the utilization law holds.
	calWL := o.Workloads[0]
	s.logf("calibrate: %s at workload %d (trial 1/%d)", o.Base.Testbed.Soft, calWL, o.Budget)
	recs, cal, err := s.evaluate([]testbed.SoftAlloc{o.Base.Testbed.Soft}, calWL)
	if err != nil {
		return err
	}
	if recs[0].point == nil {
		return fmt.Errorf("search: calibration trial failed: %s", recs[0].errText)
	}
	s.sur, err = Calibrate(cal[0].Out)
	if err != nil {
		return err
	}
	s.logf("surrogate: demands web=%v app=%v mid=%v db=%v disk=%v think=%v",
		s.sur.WebDemand, s.sur.AppDemand, s.sur.MidDemand, s.sur.DBDemand,
		s.sur.DiskDemand, s.sur.Think)

	// Surrogate pre-ranking of every candidate.
	cands := make([]candidate, 0, len(s.candidates))
	for _, soft := range s.candidates {
		score, err := s.sur.Score(soft, o.Workloads, o.SLA)
		if err != nil {
			return err
		}
		cands = append(cands, candidate{soft: soft, score: score})
	}
	sortCandidates(cands)
	keep := o.Keep
	if keep <= 0 {
		keep = s.affordableWidth(len(cands))
	}
	if keep > len(cands) {
		keep = len(cands)
	}
	for i, c := range cands {
		verdict := "admit"
		if i >= keep {
			verdict = "prune"
		}
		s.logf("surrogate rank %d: %s predicted goodput(%v) %.1f — %s",
			i+1, c.soft, o.SLA, c.score, verdict)
	}
	cands = cands[:keep]

	known := make(map[string]bool)
	for _, c := range cands {
		known[c.soft.String()] = true
	}

	// Successive halving over the workload ladder.
	for r, wl := range o.Workloads {
		if len(cands) == 0 {
			break
		}
		cands = s.trimToBudget(cands, wl, r)
		if len(cands) == 0 {
			s.logf("rung %d: budget exhausted (%d/%d trials)", r, s.used, o.Budget)
			break
		}
		softs := make([]testbed.SoftAlloc, len(cands))
		for i, c := range cands {
			softs[i] = c.soft
		}
		recs, _, err := s.evaluate(softs, wl)
		if err != nil {
			return err
		}
		// Rank by measured goodput at the SLA; failed trials sink to the
		// bottom and are always pruned.
		measured := make([]float64, len(cands))
		for i, rec := range recs {
			if rec.point == nil {
				measured[i] = -1
				s.logf("rung %d: %s at workload %d failed: %s", r, cands[i].soft, wl, rec.errText)
				continue
			}
			measured[i] = rec.point.Goodputs[s.slaIdx]
			tag := ""
			if rec.restored {
				tag = " (journal)"
			}
			s.logf("rung %d: %s at workload %d goodput(%v) %.1f%s",
				r, cands[i].soft, wl, o.SLA, measured[i], tag)
		}
		if r == len(o.Workloads)-1 {
			break // final rung: every evaluation already recorded
		}
		order := make([]int, len(cands))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			if measured[ia] != measured[ib] {
				return measured[ia] > measured[ib]
			}
			ua := cands[ia].soft.Units(o.Base.Testbed.Hardware)
			ub := cands[ib].soft.Units(o.Base.Testbed.Hardware)
			if ua != ub {
				return ua < ub
			}
			return cands[ia].soft.String() < cands[ib].soft.String()
		})
		nkeep := (len(cands) + o.Eta - 1) / o.Eta
		cutoff := measured[order[nkeep-1]]
		var next []candidate
		for pos, idx := range order {
			c := cands[idx]
			if pos < nkeep && measured[idx] >= 0 {
				next = append(next, c)
				continue
			}
			reason := fmt.Sprintf("goodput %.1f below cutoff %.1f", measured[idx], cutoff)
			if measured[idx] < 0 {
				reason = "trial failed"
			}
			s.logf("rung %d: prune %s (%s)", r, c.soft, reason)
		}
		// Obs-guided mutation of the survivors. The range snapshot is
		// deliberate: mutants join the next rung but are not themselves
		// mutated (they have no measurement yet).
		survivors := next
		for _, c := range survivors {
			rec := s.cache[cacheKey(c.soft, wl)]
			if rec == nil || rec.obs == nil {
				continue
			}
			for _, m := range s.mutations(c.soft, *rec.obs) {
				if known[m.soft.String()] {
					continue
				}
				known[m.soft.String()] = true
				score, err := s.sur.Score(m.soft, o.Workloads, o.SLA)
				if err != nil {
					return err
				}
				s.logf("rung %d: mutate %s -> %s (%s; predicted goodput %.1f)",
					r, c.soft, m.soft, m.reason, score)
				next = append(next, candidate{soft: m.soft, score: score})
			}
		}
		cands = next
	}
	return nil
}

// trimToBudget drops the lowest-ranked candidates whose trials the budget
// can no longer pay for. Cached evaluations are free and never trimmed.
func (s *searcher) trimToBudget(cands []candidate, wl, rung int) []candidate {
	avail := s.opts.Budget - s.used
	var kept []candidate
	needed := 0
	for _, c := range cands {
		if _, ok := s.cache[cacheKey(c.soft, wl)]; !ok {
			if needed == avail {
				s.logf("rung %d: budget trim %s (%d/%d trials used)",
					rung, c.soft, s.used, s.opts.Budget)
				continue
			}
			needed++
		}
		kept = append(kept, c)
	}
	return kept
}

// mutation is one obs-steered neighbor of a surviving allocation.
type mutation struct {
	soft   testbed.SoftAlloc
	reason string
}

// mutations turns a trial's bottleneck attribution into search moves: the
// Fig. 2 signature (a saturated pool with all hardware idle) grows the
// saturated pool — Algorithm 1's doubling step — and the Fig. 5 signature
// (a saturated JVM CPU with a high GC share) shrinks the pool pinning that
// JVM's heap.
func (s *searcher) mutations(soft testbed.SoftAlloc, sum obs.TrialSummary) []mutation {
	v := obs.Judge(sum, obs.JudgeConfig{})
	var out []mutation
	if v.SoftLimited() {
		p := v.Blamed()
		if m, ok := growPool(soft, p.Name); ok {
			out = append(out, mutation{
				soft:   m,
				reason: fmt.Sprintf("Fig. 2 soft bottleneck: %s saturated %.0f%%, hardware idle", p.Name, p.Saturated*100),
			})
		}
	}
	// One shrink per trial: the most utilized over-collecting JVM.
	if h, ok := v.OverCollected(); ok {
		if m, ok := shrinkPool(soft, h.Tier); ok {
			out = append(out, mutation{
				soft:   m,
				reason: fmt.Sprintf("Fig. 5 GC over-allocation: %s %.0f%% GC", h.Server, h.GCShare*100),
			})
		}
	}
	return out
}

// growPool doubles the pool named by the saturated resource.
func growPool(soft testbed.SoftAlloc, pool string) (testbed.SoftAlloc, bool) {
	ax, ok := testbed.AxisOf(pool)
	if !ok {
		return soft, false
	}
	return soft.With(ax, 2*soft.Get(ax)), true
}

// heapPool is the pool dominating each JVM tier's resident slots: the
// Tomcat heap is pinned by its thread pool, the C-JDBC heap by the
// upstream connection total.
var heapPool = map[string]testbed.Axis{"tomcat": testbed.AppThreads, "cjdbc": testbed.AppConns}

// shrinkPool halves the pool dominating the named JVM tier's heap.
func shrinkPool(soft testbed.SoftAlloc, tier string) (testbed.SoftAlloc, bool) {
	ax, ok := heapPool[tier]
	if !ok || soft.Get(ax) <= 1 {
		return soft, false
	}
	return soft.With(ax, soft.Get(ax)/2), true
}

// affordableWidth returns the largest rung-0 width whose successive
// halving over the workload ladder fits the remaining budget.
func (s *searcher) affordableWidth(max int) int {
	avail := s.opts.Budget - s.used
	best := 1
	for k := 1; k <= max; k++ {
		total, n := 0, k
		for range s.opts.Workloads {
			total += n
			n = (n + s.opts.Eta - 1) / s.opts.Eta
		}
		if total <= avail {
			best = k
		}
	}
	return best
}

// sortCandidates orders by surrogate score descending, then by the
// allocation string for a stable total order.
func sortCandidates(cands []candidate) {
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return cands[a].soft.String() < cands[b].soft.String()
	})
}

// assemble builds the sorted point list, the per-threshold frontiers, and
// the best-at-SLA pick from the evaluation cache.
func (s *searcher) assemble() {
	for _, rec := range s.cache {
		if rec.point != nil {
			s.out.Points = append(s.out.Points, *rec.point)
		}
	}
	sort.Slice(s.out.Points, func(a, b int) bool {
		pa, pb := s.out.Points[a], s.out.Points[b]
		if pa.Units != pb.Units {
			return pa.Units < pb.Units
		}
		if pa.Soft != pb.Soft {
			return pa.Soft.String() < pb.Soft.String()
		}
		return pa.Workload < pb.Workload
	})
	for i := range s.out.Thresholds {
		s.out.Frontiers = append(s.out.Frontiers, frontier(s.out.Points, i))
	}
	// Points are sorted by ascending units, so the first maximum wins and
	// ties naturally go to the cheaper allocation.
	for _, p := range s.out.Points {
		if g := p.Goodputs[s.slaIdx]; g > s.out.BestGoodput {
			s.out.Best, s.out.BestGoodput, s.out.BestWorkload = p.Soft, g, p.Workload
		}
	}
}
