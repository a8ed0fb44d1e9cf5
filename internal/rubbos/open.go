package rubbos

// Open-system load generation. The closed-loop generator in client.go
// self-throttles — a slow system slows its own offered load, so overload
// never happens. StartOpen instead drives the testbed from an external
// arrival process (trace.ArrivalSpec): requests arrive on schedule whether
// or not earlier ones have finished, offered load can exceed capacity, and
// queues grow without bound — the regime where the paper's misallocated
// configurations collapse instead of plateauing.

import (
	"fmt"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/trace"
)

// openThinkEquiv is the think time used to convert an arrival rate into an
// equivalent closed-loop population for the FIN-delay model: by Little's
// law a closed system of N users with think time Z offers roughly N/Z
// req/s, so a rate-λ open stream loads the client NICs like λ·Z users
// (7 s is the paper's think time).
const openThinkEquiv = 7 * time.Second

// OpenConfig configures the open-system load generator.
type OpenConfig struct {
	// Arrivals is the offered-load schedule (Poisson, flash-crowd,
	// MMPP — see the trace package).
	Arrivals trace.ArrivalSpec
	// Matrix is the navigation graph the stream's interaction sequence is
	// drawn from (one shared walk — the stream models the aggregate of
	// many independent sessions).
	Matrix *Matrix
	Seed   uint64

	// Tracer, when set, samples per-request phase traces.
	Tracer *trace.Tracer

	// Deadline, when positive, stamps every request with an end-to-end
	// response budget. Tiers shed requests whose remaining budget cannot
	// cover their recent service estimate (counted by Workload.Shed), and
	// responses completing past the budget count as late (Workload.Late).
	Deadline time.Duration
}

// StartOpen launches an open-system workload against target: a single
// generator process draws inter-arrival gaps from cfg.Arrivals and spawns
// one request process per arrival. Each request carries a trace.Ctx with
// its deadline and interaction class down the tier chain. It is a stepping
// process (des.Env.GoStep), so a request never holds a coroutine (see
// Target).
// Failures are split by kind: rejections that implement `Shed() bool`
// (admission control, deadline fail-fast) count as shed, everything else
// as failed.
func StartOpen(env *des.Env, cfg OpenConfig, table *Table, target Target, collect Collector) (*Workload, error) {
	if cfg.Arrivals == nil {
		return nil, fmt.Errorf("rubbos: open workload without an arrival spec")
	}
	if cfg.Arrivals.MaxRate() <= 0 {
		return nil, fmt.Errorf("rubbos: arrival spec %s has no positive rate", cfg.Arrivals)
	}
	if cfg.Matrix == nil {
		return nil, fmt.Errorf("rubbos: nil navigation matrix")
	}
	if err := cfg.Matrix.Validate(); err != nil {
		return nil, err
	}
	if cfg.Deadline < 0 {
		return nil, fmt.Errorf("rubbos: negative deadline")
	}
	// The equivalent closed-loop population drives Workload.UsersPerNode
	// (and through it the Apache FIN model).
	equiv := int(cfg.Arrivals.MaxRate()*openThinkEquiv.Seconds() + 0.5)
	w := &Workload{
		cfg:   ClientConfig{Users: equiv, Seed: cfg.Seed},
		table: table,
	}
	g := &openGen{w: w, target: target, tracer: cfg.Tracer, collect: collect}
	src := cfg.Arrivals.NewSource(rng.NewStream(cfg.Seed, "arrivals"))
	nav := rng.NewStream(cfg.Seed, "nav")
	// The arrival pump is a re-armed timer, not a generator process: a
	// generator would cost two process switches per arrival, which at the
	// 10⁵/s rates of the overload experiments dominates the run. Gaps are
	// drawn a batch at a time (exact — see trace.FillGaps); requests still
	// run as processes, since they wait in the tiers.
	state := StoriesOfTheDay
	gaps := make([]time.Duration, arrivalBatch)
	idx := len(gaps)
	var pump *des.Timer
	pump = env.NewTimer(func() {
		if w.stopped {
			return // drain: no further arrivals, no re-arm
		}
		it := &w.table.Items[state]
		state = cfg.Matrix.Next(nav, state)
		issued := env.Now()
		w.issued++
		req := g.newReq(it, issued)
		if cfg.Deadline > 0 {
			req.Deadline = issued + cfg.Deadline
		}
		if cfg.Tracer != nil {
			req.Trace = cfg.Tracer.Sample(it.Name, issued)
		}
		env.GoStep("req", req.step)
		if idx == len(gaps) {
			trace.FillGaps(src, gaps)
			idx = 0
		}
		next := issued + gaps[idx]
		idx++
		if next < issued {
			return // gap overflowed the clock: the stream has effectively ended
		}
		pump.ArmAt(next)
	})
	trace.FillGaps(src, gaps)
	idx = 1
	if first := env.Now() + gaps[0]; first >= env.Now() {
		pump.ArmAt(first)
	}
	return w, nil
}

// openGen is what every request of one open workload shares, including
// the records of finished requests, which later arrivals reuse.
type openGen struct {
	w       *Workload
	target  Target
	tracer  *trace.Tracer
	collect Collector
	free    []*openReq
}

// newReq returns a request record for an arrival of it at issued: a
// finished one, fully reset, or else a new one.
func (g *openGen) newReq(it *Interaction, issued time.Duration) *openReq {
	var r *openReq
	if n := len(g.free) - 1; n >= 0 {
		r = g.free[n]
		g.free = g.free[:n]
	} else {
		r = new(openReq)
		r.step = r.run
	}
	*r = openReq{Ctx: trace.Ctx{Write: it.Write}, gen: g, it: it, issued: issued, step: r.step}
	return r
}

// openReq is one open-system request between the dispatches of its
// process: its context, carried down the tier chain as the process's
// data, and the target's state of it. Each dispatch, a step, takes it on
// until the target is done with it.
// A finished request's record goes back to its openGen, and step, its
// process body, is bound once per record, so once the free list covers
// the requests in flight an arrival allocates nothing.
type openReq struct {
	trace.Ctx
	gen    *openGen
	it     *Interaction
	issued time.Duration
	call   Call
	step   func(*des.Proc) // r.run
}

func (r *openReq) run(p *des.Proc) {
	p.SetData(&r.Ctx)
	g := r.gen
	done, err := g.target.Do(p, r.it, &r.call)
	if !done {
		return // waiting: the target scheduled its next dispatch
	}
	if r.Trace != nil {
		g.tracer.Finish(r.Trace, p.Now())
	}
	w := g.w
	switch {
	case err == nil:
		w.completed++
		if r.Deadline > 0 && p.Now() > r.Deadline {
			w.late++
		}
	case isShed(err):
		w.shed++
	default:
		w.failed++
	}
	if g.collect != nil {
		g.collect(r.it, r.issued, p.Now()-r.issued, err)
	}
	g.free = append(g.free, r)
}

// arrivalBatch is how many inter-arrival gaps the pump pre-draws per refill.
const arrivalBatch = 512

// OpenEquivUsers converts a served-request rate into the equivalent
// closed-loop user population via Little's law with the paper's 7 s think
// time — the population whose client-side socket load a rate-λ stream
// produces.
func OpenEquivUsers(rate float64) float64 { return rate * openThinkEquiv.Seconds() }

// isShed classifies an error structurally, so this package never needs to
// import the tier package (which imports this one).
func isShed(err error) bool {
	s, ok := err.(interface{ Shed() bool })
	return ok && s.Shed()
}
