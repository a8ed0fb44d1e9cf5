package tier

import (
	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/hw"
	"github.com/softres/ntier/internal/jvm"
	"github.com/softres/ntier/internal/netsim"
	"github.com/softres/ntier/internal/resource"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/rubbos"
)

// TomcatConfig tunes one application-server model.
type TomcatConfig struct {
	Threads int // servlet thread pool size (#A_T)
	Conns   int // global DB connection pool size (#A_C)
	// CtxSwitchCoeff inflates servlet CPU demand per additional active
	// thread (scheduling/locking overhead of large pools).
	CtxSwitchCoeff float64
	// JVM parameterizes the heap/collector model.
	JVM jvm.Config
}

// responseTransferMS is the mean time a servlet thread spends streaming
// the response back through the connector (network transfer, no CPU, no
// DB connection held).
const responseTransferMS = 2.0

// DefaultTomcatConfig returns the calibration for a paper Tomcat node with
// the given pool sizes.
func DefaultTomcatConfig(threads, conns int) TomcatConfig {
	cfg := TomcatConfig{
		Threads:        threads,
		Conns:          conns,
		CtxSwitchCoeff: 0.0004,
		JVM:            jvm.DefaultConfig(),
	}
	// Tomcat holds more base live data than C-JDBC (application classes,
	// session caches); each slot pins a thread stack plus servlet buffers.
	cfg.JVM.BaseLiveMiB = 250
	cfg.JVM.MinFreeMiB = 50
	return cfg
}

// Tomcat models one application server: a servlet thread pool and a global
// DB connection pool (the paper modified RUBBoS so all servlets share one
// pool per server). A request holds a thread for its entire residence and a
// DB connection only during each query — the busy periods t1, t2 of Fig. 9.
//
// With a ResilienceConfig attached, thread and connection waits are
// bounded, failed queries are retried with backoff, and the Tomcat→C-JDBC
// hop is guarded by a circuit breaker.
type Tomcat struct {
	server // its estimator tracks servlet residence, thread wait included
	cfg    TomcatConfig

	Threads *resource.Pool
	Conns   *resource.Pool
	JVM     *jvm.JVM

	backend *CJDBC
	res     resilience
}

// NewTomcat creates an application server on node, forwarding queries to
// backend: the C-JDBC middleware, where each checkout of a pool connection
// occupies one handler thread until the paired Release.
func NewTomcat(env *des.Env, node *hw.Node, cfg TomcatConfig, backend *CJDBC, link netsim.Link, r *rng.Rand) *Tomcat {
	t := &Tomcat{
		server:  newServer(env, node, link, r),
		cfg:     cfg,
		Threads: resource.NewPool(env, node.Name()+"/threads", cfg.Threads),
		Conns:   resource.NewPool(env, node.Name()+"/conns", cfg.Conns),
		backend: backend,
	}
	// Heap is pinned by every pool thread and connection, idle or busy —
	// "soft resources may consume other system resources whether they are
	// being used or not". Requests queued at the thread pool wait in the
	// kernel accept backlog and pin nothing.
	t.JVM = jvm.New(env, node.Name()+"/jvm", node.CPU(), cfg.JVM, func() int {
		// Read live capacities so runtime pool resizing (adaptive
		// control) changes the pinned heap immediately.
		return t.Threads.Capacity() + t.Conns.Capacity()
	})
	node.AddOverhead(t.JVM.GCTimeIntegral)
	return t
}

// SetResilience attaches the resilience layer; r seeds the backoff jitter.
// It must be called before the simulation starts.
func (t *Tomcat) SetResilience(cfg *ResilienceConfig, r *rng.Rand) {
	t.res = newResilience(t.env, cfg, r)
}

// Resilience returns the resilience counters (nil when the layer is off).
func (t *Tomcat) Resilience() *ResilienceStats { return t.res.Stats() }

// The stages of a servlet request at Tomcat, in inService.app.stage.
const (
	appSend      uint8 = iota // the hop in next
	appArrive                 // crossing in
	appQueued                 // waiting suspended for a servlet thread
	appGranted                // holding a thread: the servlet starts next
	appSlice                  // on the CPU for the pre phase or a query's slice
	appQuery                  // a query in progress
	appPost                   // on the CPU for the post phase
	appCollect                // resting through a collection the allocation started
	appCollected              // the response transfer next
	appTransfer               // resting through the response transfer
	appDone                   // served: the thread is released next
)

// serve processes one servlet request for the calling process, as a stage
// function (see Apache.Do): acquire a servlet thread, run the servlet's
// CPU phases, and issue its SQL queries through the DB connection pool. A
// non-nil error aborts the request (the connector returns an error
// response upstream).
func (t *Tomcat) serve(p *des.Proc, it *rubbos.Interaction, s *inService) (bool, error) {
	l := &s.app
	for {
		switch l.stage {
		case appSend:
			l.stage = appArrive
			if !t.link.Cross(p) {
				return false, nil
			}
		case appArrive:
			if err := t.refuse(p); err != nil {
				return t.back(p, &l.leg, err)
			}
			l.entry = p.Now()
			l.stage = appGranted
			if !t.Threads.AcquireOrSuspend(p, t.res.acquireTimeout()) {
				l.stage = appQueued
				return false, nil
			}
		case appQueued:
			if ok, _ := t.Threads.Resolve(p); !ok {
				t.res.stats.AcquireTimeouts++
				t.res.stats.Failures++
				addSpan(p, t.Node.Name(), "thread-timeout", l.entry)
				return t.back(p, &l.leg, &t.errs[FailTimeout])
			}
			l.stage = appGranted
		case appGranted:
			addSpan(p, t.Node.Name(), "thread-wait", l.entry)
			// Residence is measured while holding a servlet thread: the
			// log's Little's-law estimate counts jobs *inside* the server,
			// which is what the allocation algorithm sizes pools from (a
			// request waiting in the kernel accept backlog is not a job in
			// the server).
			l.start = p.Now()
			l.queries = t.sampleQueries(it.Queries)
			// Split servlet CPU across the query sequence: a pre phase, a
			// slice after each query, and a post phase.
			l.per = it.ServletMS / float64(l.queries+2)
			l.stage = appSlice
			if !t.useCPU(p, s, l.per, it.CV) {
				return false, nil
			}
		case appSlice:
			addSpan(p, t.Node.Name(), "cpu", s.t0)
			if l.q < l.queries {
				l.loop, l.attempt, l.err = querySend, 0, nil
				l.stage = appQuery
				continue
			}
			l.stage = appPost
			if !t.useCPU(p, s, l.per, it.CV) {
				return false, nil
			}
		case appQuery:
			done, err := t.query(p, it, s)
			if !done {
				return false, nil
			}
			if l.err = err; err != nil {
				t.res.stats.Failures++
				l.stage = appDone
				continue
			}
			l.q++
			l.stage = appSlice
			if !t.useCPU(p, s, l.per, it.CV) {
				return false, nil
			}
		case appPost:
			addSpan(p, t.Node.Name(), "cpu", s.t0)
			l.stage = appCollected
			if pause, gc := t.JVM.Allocate(it.AllocTomcatMiB); gc {
				l.stage = appCollect
				p.Rest(pause)
				return false, nil
			}
		case appCollect:
			t.JVM.Collected()
			l.stage = appCollected
		case appCollected:
			// Stream the response out through the connector while still
			// holding the servlet thread (but no DB connection).
			s.t0 = p.Now()
			l.stage = appTransfer
			p.Rest(sampleMS(t.r, responseTransferMS, transferCV))
			return false, nil
		case appTransfer:
			addSpan(p, t.Node.Name(), "response-transfer", s.t0)
			l.stage = appDone
		case appDone:
			t.Threads.Release()
			t.log.Observe(p.Now(), p.Now()-l.start)
			if l.err == nil {
				t.est.observe(p.Now() - l.entry)
			}
			return t.back(p, &l.leg, l.err)
		case returning:
			return true, l.err
		}
	}
}

// The stages of a query, in inService.app.loop.
const (
	querySend      uint8 = iota // the next attempt next
	queryBackoff                // resting through a retry's backoff
	queryAcquire                // the connection acquire next
	queryQueued                 // waiting suspended for a connection
	queryConn                   // holding a connection: the checkout next
	queryCheckout               // in the checkout
	queryStatement              // the statement in progress
	queryDone                   // the attempt's call is over with app.err
)

// query issues one SQL statement through the connection pool and backend,
// retrying with backoff when resilience is enabled, as a stage function
// (see Apache.Do). Each attempt checks out a fresh connection — retries
// re-pay the checkout validation and routing work downstream, which is how
// retry storms multiply effective backend concurrency.
func (t *Tomcat) query(p *des.Proc, it *rubbos.Interaction, s *inService) (bool, error) {
	l := &s.app
	for {
		switch l.loop {
		case querySend:
			if l.attempt == t.res.attempts() {
				return true, l.err
			}
			l.loop = queryAcquire
			if l.attempt > 0 {
				if deadlinePassed(p) {
					// Out of budget mid-request: abort the retry loop
					// instead of burning another connection checkout
					// downstream.
					return true, &t.errs[FailDeadline]
				}
				t.res.stats.Retries++
				if d := t.res.cfg.backoff(t.res.r, l.attempt-1); d > 0 {
					s.t0 = p.Now()
					l.loop = queryBackoff
					p.Rest(d)
					return false, nil
				}
			}
		case queryBackoff:
			addSpan(p, t.Node.Name(), "backoff", s.t0)
			l.loop = queryAcquire
		case queryAcquire:
			l.attempt++
			s.t0 = p.Now()
			l.loop = queryConn
			if !t.Conns.AcquireOrSuspend(p, t.res.acquireTimeout()) {
				l.loop = queryQueued
				return false, nil
			}
		case queryQueued:
			l.loop = queryConn
			if ok, _ := t.Conns.Resolve(p); !ok {
				t.res.stats.AcquireTimeouts++
				l.err = &t.errs[FailTimeout]
				l.loop = querySend
			}
		case queryConn:
			addSpan(p, t.Node.Name(), "conn-wait", s.t0)
			if br := t.res.breaker(0); br != nil && !br.Allow() {
				t.Conns.Release()
				l.err = &t.errs[FailOpen]
				l.loop = querySend
				continue
			}
			l.call = p.Now()
			s.mid = dbLeg{}
			l.loop = queryCheckout
		case queryCheckout:
			done, err := t.backend.checkout(p, s)
			if !done {
				return false, nil
			}
			l.err = err
			l.loop = queryDone
			if err == nil {
				s.mid = dbLeg{}
				l.loop = queryStatement
			}
		case queryStatement:
			done, err := t.backend.query(p, it, s)
			if !done {
				return false, nil
			}
			t.backend.Release()
			l.err = err
			l.loop = queryDone
		case queryDone:
			t.Conns.Release()
			l.err = t.res.settle(0, p.Now()-l.call, l.err, &t.errs[FailTimeout])
			if l.err == nil || isDeadline(l.err) {
				// Done, or out of budget: retrying cannot possibly finish
				// in time.
				return true, l.err
			}
			l.loop = querySend
		}
	}
}

// transferCV is the variation of a response's transfer to Apache.
var transferCV = rng.NewCV(0.3)

// useCPU puts meanMS of servlet work, inflated by the concurrency
// overhead, on the CPU for p, starting the span s.t0 (see server.use).
func (t *Tomcat) useCPU(p *des.Proc, s *inService, meanMS float64, cv rng.CV) bool {
	s.t0 = p.Now()
	demand := meanMS * (1 + t.cfg.CtxSwitchCoeff*float64(t.Threads.InUse()-1))
	return t.use(p, sampleMS(t.r, demand, cv))
}

// sampleQueries converts a fractional mean query count into an integer
// draw: floor(mean) plus a Bernoulli for the remainder.
func (t *Tomcat) sampleQueries(mean float64) int {
	n := int(mean)
	if t.r.Bool(mean - float64(n)) {
		n++
	}
	return n
}

// ResetStats starts a new measurement window.
func (t *Tomcat) ResetStats() {
	t.JVM.ResetStats()
	t.Threads.ResetStats()
	t.Conns.ResetStats()
	t.resetStats()
}
