package rubbos

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/trace"
)

// Target is the system under test as seen by an emulated browser. Do
// serves one interaction for the calling process and reports whether it
// is done: the complete response (including static follow-ups) received.
// A non-nil error then means the browser got an error or degraded
// response instead of the page (crash faults, shed requests, timeouts).
//
// Do is re-entrant, and each call comes in a step (des.Env.GoStep: no
// coroutine, on the scheduler's stack). Wherever the request waits, the
// Target records where it stands in c (and in a record c.Rec names),
// schedules the next wake (des.Proc.Rest) or suspends the process
// (des.Proc.Suspend), and returns false. The caller must then end its
// step; at the process's next dispatch it calls Do again with the same it
// and c, until Do returns true. A new request starts from the zero Call,
// and Do leaves c zero when it returns true.
type Target interface {
	Do(p *des.Proc, it *Interaction, c *Call) (done bool, err error)
}

// Call is what a Target keeps about one request between the dispatches of
// its process. The zero Call is a request not yet sent.
type Call struct {
	// Stage is how far the target has taken the request; 0 before it is
	// sent.
	Stage uint8
	// Reply is the target's code for the response on its way back to the
	// client, while Stage says one is.
	Reply uint8
	// Server is the target's index of the server the request went to.
	Server uint16
	// Rec is the target's handle of a record of the rest of the
	// request's state, 0 while it keeps none.
	Rec uint32
}

// Collector receives one record per finished request; err is non-nil when
// the request failed (rt then covers the time until the error response).
type Collector func(it *Interaction, issued time.Duration, rt time.Duration, err error)

// ClientNodes is the number of load-generator machines a workload is
// spread over, as in the paper. It only sets the per-node load that drives
// the FIN-delay model (Workload.UsersPerNode).
const ClientNodes = 2

// ClientConfig configures the closed-loop load generator.
type ClientConfig struct {
	Users     int           // emulated users (the paper's "workload")
	ThinkMean time.Duration // exponential think time mean (~7 s)
	RampUp    time.Duration // users start uniformly over this period
	Matrix    *Matrix       // navigation graph
	Seed      uint64

	// Tracer, when set, samples per-request phase traces (see the trace
	// package).
	Tracer *trace.Tracer

	// Patience, when positive, models user abandonment (the Aberdeen
	// behaviour the paper cites: slow pages lose customers): a response
	// slower than Patience makes the user abandon the session — navigate
	// back to the home page after a longer, frustrated think time.
	Patience time.Duration
	// AbandonThink is the mean think time after abandoning (default
	// 3x ThinkMean).
	AbandonThink time.Duration
}

// DefaultClientConfig mirrors the paper's setup at the given user count:
// 7-second mean think time, browse-only navigation.
func DefaultClientConfig(users int) ClientConfig {
	return ClientConfig{
		Users:     users,
		ThinkMean: 7 * time.Second,
		RampUp:    30 * time.Second,
		Matrix:    BrowseOnlyMix(),
		Seed:      1,
	}
}

// Workload is a running set of emulated user sessions.
type Workload struct {
	cfg     ClientConfig
	table   *Table
	target  Target    // closed-loop sessions only
	collect Collector // closed-loop sessions only

	issued    uint64
	completed uint64
	abandoned uint64
	failed    uint64
	shed      uint64
	late      uint64

	// stopped makes sessions (and the open-workload arrival pump) exit at
	// their next issue point instead of looping forever, so a trial can
	// drain to zero requests in flight — the precondition for the
	// quiescent audit. Set via Stop between Run calls.
	stopped bool
}

// UsersPerNode returns the emulated-user count per client node, the load
// measure that drives the FIN-delay model.
func (w *Workload) UsersPerNode() float64 {
	return float64(w.cfg.Users) / ClientNodes
}

// Issued returns the number of requests sent so far.
func (w *Workload) Issued() uint64 { return w.issued }

// Completed returns the number of responses received so far.
func (w *Workload) Completed() uint64 { return w.completed }

// Abandoned returns the number of sessions abandoned over slow responses
// (0 unless ClientConfig.Patience is set).
func (w *Workload) Abandoned() uint64 { return w.abandoned }

// Failed returns the number of requests that ended in an error response
// (0 in a fault-free simulation). Shed requests are counted separately.
func (w *Workload) Failed() uint64 { return w.failed }

// Shed returns the number of requests rejected by load shedding — admission
// control or deadline fail-fast (0 in closed-loop workloads, whose error
// classification happens in the experiment layer).
func (w *Workload) Shed() uint64 { return w.shed }

// Late returns the number of responses that completed after their
// end-to-end deadline (0 unless an open workload sets OpenConfig.Deadline).
func (w *Workload) Late() uint64 { return w.late }

// InFlight returns the number of issued requests not yet resolved as
// completed, failed, or shed — the quantity that must reach zero after a
// stopped workload drains.
func (w *Workload) InFlight() int {
	return int(w.issued - w.completed - w.failed - w.shed)
}

// Requests holds the conservation buckets of a workload: issued =
// completed + failed + shed + in flight.
type Requests struct {
	Issued    uint64 `json:"issued"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Shed      uint64 `json:"shed"`
	InFlight  int    `json:"in_flight"`
}

// Requests returns the workload's conservation buckets so far.
func (w *Workload) Requests() Requests {
	return Requests{Issued: w.issued, Completed: w.completed, Failed: w.failed, Shed: w.shed, InFlight: w.InFlight()}
}

// Stop makes every session exit at its next issue point (after the current
// think or request) and stops the open-workload arrival pump, so the run
// drains instead of offering load forever. Call it between Env.Run calls;
// it takes effect deterministically on the simulated clock.
func (w *Workload) Stop() { w.stopped = true }

// Stopped reports whether Stop has been called.
func (w *Workload) Stopped() bool { return w.stopped }

// Audit checks request conservation: every issued request is completed,
// failed, shed, or still in flight — never double-counted, never lost —
// and the derived counters stay within their parents (abandonments and
// late finishes are completions). Pure read; Testbed.Audit calls it for
// the workload the testbed started.
func (w *Workload) Audit() error {
	if done := w.completed + w.failed + w.shed; done > w.issued {
		return fmt.Errorf("rubbos: %d requests resolved of %d issued", done, w.issued)
	}
	if w.abandoned > w.completed {
		return fmt.Errorf("rubbos: %d abandonments over %d completions", w.abandoned, w.completed)
	}
	if w.late > w.completed {
		return fmt.Errorf("rubbos: %d late responses over %d completions", w.late, w.completed)
	}
	return nil
}

// AuditQuiescent is Audit plus the post-drain requirement: the workload
// was stopped and no request remains in flight, closing the conservation
// law issued == completed + failed + shed exactly.
func (w *Workload) AuditQuiescent() error {
	if err := w.Audit(); err != nil {
		return err
	}
	if !w.stopped {
		return fmt.Errorf("rubbos: quiescent audit on a workload that was never stopped")
	}
	if n := w.InFlight(); n != 0 {
		return fmt.Errorf("rubbos: %d requests still in flight after drain", n)
	}
	return nil
}

// Start launches cfg.Users session processes against target. Each session
// loops forever: think, issue the current interaction, record the response
// time, pick the next interaction from the navigation matrix. Sessions stop
// when the simulation stops; the experiment layer gates measurement windows.
//
// A session is a stepping process (des.Env.GoStep): its ramp offset, its
// think times, the bookkeeping around each request and the request itself
// are steps (see Target), so it never holds a coroutine. Every session of
// the workload runs one step function, and its process's data is its
// session record, taken from the records env's storage keeps (sessions),
// so a warm Start allocates nothing per user.
func Start(env *des.Env, cfg ClientConfig, table *Table, target Target, collect Collector) (*Workload, error) {
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("rubbos: %d users", cfg.Users)
	}
	if cfg.Matrix == nil {
		return nil, fmt.Errorf("rubbos: nil navigation matrix")
	}
	if err := cfg.Matrix.Validate(); err != nil {
		return nil, err
	}
	if cfg.ThinkMean < 0 {
		return nil, fmt.Errorf("rubbos: negative think time")
	}
	if cfg.Patience > 0 && cfg.AbandonThink == 0 {
		cfg.AbandonThink = 3 * cfg.ThinkMean
	}
	w := &Workload{cfg: cfg, table: table, target: target, collect: collect}
	k, _ := env.Kept().(*sessions)
	if k == nil {
		k = new(sessions)
		env.Keep(k)
	}
	names := userLabels(cfg.Users)
	step := w.step
	for u := 0; u < cfg.Users; u++ {
		// label doubles as the RNG stream name and the diagnostic process
		// name; it is part of the deterministic contract (changing stream
		// labels changes every trial outcome) and so must stay "user-<u>".
		label := names[labelOffset(u):labelOffset(u+1)]
		s := k.next()
		*s = session{r: rng.Stream(cfg.Seed, label), state: uint8(StoriesOfTheDay)}
		if cfg.RampUp > 0 {
			s.issued = time.Duration(uint64(cfg.RampUp) * uint64(u) / uint64(cfg.Users))
		}
		env.GoStep(label, step).SetData(s)
	}
	return w, nil
}

// labels is the label of every user from 0 to n-1, "user-0user-1…", in
// one string that every workload of the process shares: a user's label is
// a slice of it (labelOffset), so it costs no allocation of its own. It
// grows by doubling.
var labels struct {
	sync.Mutex
	s string
	n int
}

// userLabels returns a string holding the labels of users 0 to n-1 at
// their offsets.
func userLabels(n int) string {
	labels.Lock()
	defer labels.Unlock()
	if n > labels.n {
		m := max(n, 2*labels.n)
		var b strings.Builder
		b.Grow(labelOffset(m))
		b.WriteString(labels.s)
		var buf [32]byte
		for u := labels.n; u < m; u++ {
			b.Write(strconv.AppendInt(append(buf[:0], "user-"...), int64(u), 10))
		}
		labels.s, labels.n = b.String(), m
	}
	return labels.s
}

// labelOffset returns where user u's label starts in the labels string:
// five bytes of "user-" for each user before it, plus their digits, one
// each and one more for each power of ten at or below the user's index.
func labelOffset(u int) int {
	off := 6 * u
	for p := 10; p < u; p *= 10 {
		off += u - p
	}
	return off
}

// sessions is the session records of the closed workloads started on one
// Env, which its storage keeps (des.Env.Keep) for the Envs that adopt it:
// a warm Start takes the records an earlier trial left. Records are handed
// out in order from slabs of sessionSlab, so they never move, and the
// workloads started on one Env (a fleet's tenants) take disjoint ones.
type sessions struct {
	slabs [][]session
	n     int // records handed out since the last Reset
}

// sessionSlab is how many session records a slab holds: as for des's Proc
// slabs, 63 records of 64 bytes fit the 4096-byte size class with the
// runtime's 8-byte header.
const sessionSlab = 63

// next returns the next record, which the caller overwrites whole.
func (k *sessions) next() *session {
	i := k.n
	if i == len(k.slabs)*sessionSlab {
		k.slabs = append(k.slabs, make([]session, sessionSlab))
	}
	k.n++
	return &k.slabs[i/sessionSlab][i%sessionSlab]
}

// Reset zeroes the records handed out, which hold the traces of the
// requests in flight at Shutdown, and rewinds the cursor.
func (k *sessions) Reset() {
	for _, slab := range k.slabs[:(k.n+sessionSlab-1)/sessionSlab] {
		clear(slab)
	}
	k.n = 0
}

// session is one emulated user's state between the dispatches of its
// process, one 64-byte record. Each dispatch does one step of the closed
// loop and ends with a Rest, or wherever its request waits, so no
// coroutine stack is held through think times or requests.
type session struct {
	// tr is the sampled trace of the request in flight, or nil.
	tr *trace.Trace
	r  rng.Rand
	// issued is when the request in flight was issued; until the first
	// run, the ramp offset.
	issued time.Duration
	state  uint8 // the interaction the user issues next
	phase  sessionPhase
	// abandoned is set after a response slower than the patience: the
	// next think time is the abandonment think, not the normal one.
	abandoned bool
	// call is the target's state of the request in flight.
	call Call
}

// Sampled returns the trace of the request in flight, which the tiers add
// their spans to.
func (s *session) Sampled() *trace.Trace { return s.tr }

// Every interaction index fits session.state.
const _ uint8 = NumInteractions - 1

type sessionPhase uint8

const (
	ramping    sessionPhase = iota // first dispatch: rest through the ramp offset
	arriving                       // second dispatch: rest through the first think
	browsing                       // a think ended: the next request is issued
	requesting                     // the request is in flight, over as many dispatches as it takes
)

// step is the process body of every session of w: one step of the closed
// loop of the session that is p's data.
func (w *Workload) step(p *des.Proc) {
	s := p.Data().(*session)
	switch s.phase {
	case ramping:
		s.phase = arriving
		p.Rest(s.issued)
		return
	case arriving:
		s.phase = browsing
	case browsing:
		if w.stopped {
			return
		}
		// Issue the current interaction.
		s.phase = requesting
		s.issued = p.Now()
		w.issued++
		if t := w.cfg.Tracer; t != nil {
			s.tr = t.Sample(w.table.Items[s.state].Name, s.issued)
		}
		fallthrough
	case requesting:
		if !w.request(p, s) {
			return // the request waits: the target scheduled its next dispatch
		}
	}
	think := w.cfg.ThinkMean
	if s.abandoned {
		think = w.cfg.AbandonThink
	}
	p.Rest(time.Duration(s.r.Exp(float64(think))))
}

// request takes the request in flight on through the target. It reports
// false while the request waits; once done it records the outcome and
// picks the next interaction and whether the user abandoned.
func (w *Workload) request(p *des.Proc, s *session) bool {
	cfg := &w.cfg
	it := &w.table.Items[s.state]
	done, err := w.target.Do(p, it, &s.call)
	if !done {
		return false
	}
	s.phase = browsing
	if s.tr != nil {
		cfg.Tracer.Finish(s.tr, p.Now())
		s.tr = nil
	}
	s.abandoned = false
	issued := s.issued
	rt := p.Now() - issued
	if err != nil {
		// Error page: the user stays on the same state and reloads after a
		// normal think time.
		w.failed++
		if w.collect != nil {
			w.collect(it, issued, rt, err)
		}
		return true
	}
	w.completed++
	if w.collect != nil {
		w.collect(it, issued, rt, nil)
	}
	if cfg.Patience > 0 && rt > cfg.Patience {
		// Frustrated user: abandon the navigation, return to the home page
		// after a long pause.
		w.abandoned++
		s.state = uint8(StoriesOfTheDay)
		s.abandoned = true
		return true
	}
	s.state = uint8(cfg.Matrix.Next(&s.r, int(s.state)))
	return true
}
