// Package tier models the four server types of the paper's RUBBoS
// deployment — Apache (web), Tomcat (application), C-JDBC (database
// clustering middleware), and MySQL (database) — at the level of detail the
// paper's phenomena require: thread pools, connection pools, per-tier CPU
// demands, JVM garbage collection, scheduling overhead, and Apache's
// lingering close.
//
// A request is carried by a single simulation process end to end (the
// emulated browser's process), acquiring and releasing pool units as it
// flows down and back up the tiers — the synchronous RPC chain of Fig. 9.
// The process runs in steps (des.Env.GoStep): each server's part of the
// chain is a stage function of Apache.Do's shape, which returns false
// wherever the request waits and goes on at its next dispatch from the
// request's in-service record (inService).
package tier

import (
	"fmt"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/hw"
	"github.com/softres/ntier/internal/netsim"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/trace"
)

// server is the core the four server models embed: the node and link it
// runs on, its service-time stream, residence log and error responses, the
// crash flag, and the deadline admission check with its shed count. The
// models differ only in their pools and service phases.
type server struct {
	env  *des.Env
	Node *hw.Node
	link netsim.Link
	r    *rng.Rand
	log  ServiceLog
	errs failures
	down bool

	// est tracks recent residence for the deadline admission check;
	// dlSheds counts deadline fail-fasts.
	est     estimator
	dlSheds uint64
}

func newServer(env *des.Env, node *hw.Node, link netsim.Link, r *rng.Rand) server {
	return server{env: env, Node: node, link: link, r: r, errs: newFailures(node.Name())}
}

// SetDown marks the server crashed (refusing all work) or restored.
func (s *server) SetDown(down bool) { s.down = down }

// Log returns the residence-time log.
func (s *server) Log() *ServiceLog { return &s.log }

// DeadlineSheds returns the cumulative count of requests refused because
// their deadline budget could not cover this server's residence estimate.
// Pure read — safe for observability probes.
func (s *server) DeadlineSheds() uint64 { return s.dlSheds }

// resetStats starts a new measurement window for the node and the log.
func (s *server) resetStats() {
	s.Node.ResetStats()
	s.log.Reset(s.env.Now())
}

// auditUp is the quiescent crash-flag audit: every fault plan reverts its
// crashes, so a server still down after it has drained lost a revert.
func (s *server) auditUp() error {
	if s.down {
		return fmt.Errorf("tier: %s still down after reverts", s.Node.Name())
	}
	return nil
}

// refuse is the entry check of a backend server, run once the request has
// reached it: a crashed server refuses it, and so does one whose recent
// residence the request's remaining deadline budget cannot cover (deadline
// propagation: no pool slot or CPU is spent on work the client will never
// use). It books and returns the refusal, which the caller sends back
// (back); nil admits the request.
func (s *server) refuse(p *des.Proc) error {
	if s.down {
		return &s.errs[FailDown]
	}
	if overDeadline(p, &s.est) {
		s.dlSheds++
		return &s.errs[FailDeadline]
	}
	return nil
}

// use puts work on the server's CPU for p and reports whether it is done,
// as for no work; else p is suspended until its job completes.
func (s *server) use(p *des.Proc, work time.Duration) bool {
	if !s.Node.CPU().Use(p, work) {
		return true
	}
	p.Suspend()
	return false
}

// back ends a call at the server with err: the response crosses back to
// the caller as a rest, with err held in l until the wake returns it.
func (s *server) back(p *des.Proc, l *leg, err error) (bool, error) {
	l.stage, l.err = returning, err
	if !s.link.Cross(p) {
		return false, nil
	}
	return true, err
}

// inService is one request's state from its worker grant until its
// response reaches the client, which its Apache takes and then puts back
// for reuse: each server's leg of it. A call starts from a zero leg.
type inService struct {
	t0      time.Duration // the start of the span in progress at the innermost server
	web     webLeg
	app     appLeg
	mid, db dbLeg
}

// leg is what a server's stage functions remember of a call across the
// request's waits: its stage and the error on its way back.
type leg struct {
	stage uint8
	err   error
}

// webLeg is Apache's leg: the proxy call's stage, its attempts begun and
// the Tomcat of the last, and when the request passed the front door, got
// its worker, began and spent the proxy call, and began the last attempt.
type webLeg struct {
	leg
	loop                              uint8
	attempt, peer                     int
	entry, start, conn, connDur, call time.Duration
}

// appLeg is Tomcat's leg: the current query's stage and attempts begun,
// the queries to make and made, a servlet slice's mean demand, and when
// the request arrived, got its thread and began the last backend call.
type appLeg struct {
	leg
	loop                uint8
	attempt, queries, q int
	per                 float64
	entry, start, call  time.Duration
}

// dbLeg is the leg of C-JDBC and of MySQL: the database the statement
// went to, when the call began, and the disk commit's transfer.
type dbLeg struct {
	leg
	peer           int
	start, service time.Duration
}

// returning is every stage function's last stage: the response crosses
// back (server.back).
const returning uint8 = 255

// sampleMS draws a lognormal service time with the given mean (milliseconds)
// and coefficient of variation.
func sampleMS(r *rng.Rand, meanMS float64, cv rng.CV) time.Duration {
	if meanMS <= 0 {
		return 0
	}
	ms := r.LogNormalMean(meanMS, cv)
	return time.Duration(ms * float64(time.Millisecond))
}

// ServiceLog records per-server residence times during the measurement
// window — the paper's per-server request logging (Log4j) that feeds
// Little's-law inference.
type ServiceLog struct {
	start time.Duration
	count uint64
	sumRT time.Duration
}

// Reset starts a new measurement window at now.
func (l *ServiceLog) Reset(now time.Duration) {
	l.start = now
	l.count = 0
	l.sumRT = 0
}

// Observe records one completed residence of duration rt at time now.
// Completions before the window start are dropped.
func (l *ServiceLog) Observe(now, rt time.Duration) {
	if now < l.start {
		return
	}
	l.count++
	l.sumRT += rt
}

// Count returns completions inside the window.
func (l *ServiceLog) Count() uint64 { return l.count }

// Throughput returns completions per second over the window ending at now.
func (l *ServiceLog) Throughput(now time.Duration) float64 {
	elapsed := (now - l.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(l.count) / elapsed
}

// MeanRT returns the mean residence time, or 0 with no completions.
func (l *ServiceLog) MeanRT() time.Duration {
	if l.count == 0 {
		return 0
	}
	return time.Duration(uint64(l.sumRT) / l.count)
}

// Jobs returns the Little's-law estimate of mean concurrent jobs in the
// server over the window ending at now: L = X * R.
func (l *ServiceLog) Jobs(now time.Duration) float64 {
	return l.Throughput(now) * l.MeanRT().Seconds()
}

// traced is the data of a process that may carry a sampled trace down
// the tier chain: an open-system request's *trace.Ctx, or a closed-loop
// user's session. Sampled returns the trace of the request in flight, or
// nil.
type traced interface{ Sampled() *trace.Trace }

// addSpan records a phase on the request's trace, if the carrying
// process's data carries a sampled one.
func addSpan(p *des.Proc, server, phase string, start time.Duration) {
	if c, ok := p.Data().(traced); ok {
		if tr := c.Sampled(); tr != nil {
			tr.Add(server, phase, start, p.Now())
		}
	}
}

// deadlineOf returns the carrying request's absolute deadline, or 0 when the
// request has no deadline context attached.
func deadlineOf(p *des.Proc) time.Duration {
	if c, ok := p.Data().(*trace.Ctx); ok && c != nil {
		return c.Deadline
	}
	return 0
}

// deadlinePassed reports whether the request's deadline (if any) is already
// behind the simulation clock — used to abort retry loops mid-request.
func deadlinePassed(p *des.Proc) bool {
	dl := deadlineOf(p)
	return dl != 0 && p.Now() > dl
}

// estAlpha is the smoothing weight of the residence-time estimator.
const estAlpha = 0.1

// estimator tracks an exponentially-weighted moving average of a server's
// recent residence time. It feeds the deadline admission check: a request
// whose remaining budget cannot cover the estimate is shed at the door
// instead of burning a pool slot on work the client will never use. Updates
// are pure arithmetic (no RNG, no events), so maintaining the estimate
// never perturbs a deadline-free simulation.
type estimator struct {
	v float64 // EWMA residence in nanoseconds; 0 until the first observation
}

// observe folds one completed residence into the estimate.
func (e *estimator) observe(d time.Duration) {
	if e.v == 0 {
		e.v = float64(d)
		return
	}
	e.v += estAlpha * (float64(d) - e.v)
}

// get returns the current estimate (0 before any observation, so the first
// requests are always admitted).
func (e *estimator) get() time.Duration { return time.Duration(e.v) }

// overDeadline reports whether the request's remaining budget cannot cover
// the server's recent residence estimate. Requests without a deadline are
// never over it.
func overDeadline(p *des.Proc, est *estimator) bool {
	dl := deadlineOf(p)
	if dl == 0 {
		return false
	}
	return p.Now()+est.get() > dl
}
