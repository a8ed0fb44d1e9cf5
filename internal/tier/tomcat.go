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
	// ResponseTransferMS is the mean time a servlet thread spends streaming
	// the response back through the connector (network transfer, no CPU,
	// no DB connection held).
	ResponseTransferMS float64
	// JVM parameterizes the heap/collector model.
	JVM jvm.Config
}

// DefaultTomcatConfig returns the calibration for a paper Tomcat node with
// the given pool sizes.
func DefaultTomcatConfig(threads, conns int) TomcatConfig {
	cfg := TomcatConfig{
		Threads:            threads,
		Conns:              conns,
		CtxSwitchCoeff:     0.0004,
		ResponseTransferMS: 2.0,
		JVM:                jvm.DefaultConfig(),
	}
	// Tomcat holds more base live data than C-JDBC (application classes,
	// session caches) and pins a thread stack plus servlet buffers per slot.
	cfg.JVM.BaseLiveMiB = 250
	cfg.JVM.LiveMiBPerSlot = 2.0
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

	backend Backend
	res     resilience
}

// Backend executes SQL statements on behalf of an application server; in
// the paper's four-tier topology it is the C-JDBC middleware. Checkout is
// the connection checkout (with its test-on-borrow validation round): it
// occupies one backend handler thread until the paired Release. A failed
// Checkout (crashed backend) holds nothing and must not be Released.
type Backend interface {
	Checkout(p *des.Proc) error
	Query(p *des.Proc, it *rubbos.Interaction) error
	Release()
}

// NewTomcat creates an application server on node, forwarding queries to
// backend.
func NewTomcat(env *des.Env, node *hw.Node, cfg TomcatConfig, backend Backend, link netsim.Link, r *rng.Rand) *Tomcat {
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

// Serve processes one servlet request for the calling process: acquire a
// servlet thread, run the servlet's CPU phases, and issue its SQL queries
// through the DB connection pool. A non-nil error aborts the request (the
// connector returns an error response upstream).
func (t *Tomcat) Serve(p *des.Proc, it *rubbos.Interaction) error {
	t.link.Traverse(p)
	if err := t.refuse(p); err != nil {
		return err
	}
	entry := p.Now()
	if ok, _ := t.Threads.AcquireTimeout(p, t.res.acquireTimeout()); !ok {
		t.res.stats.AcquireTimeouts++
		t.res.stats.Failures++
		addSpan(p, t.Node.Name(), "thread-timeout", entry)
		t.link.Traverse(p)
		return &t.errs[FailTimeout]
	}
	addSpan(p, t.Node.Name(), "thread-wait", entry)
	// Residence is measured while holding a servlet thread: the log's
	// Little's-law estimate counts jobs *inside* the server, which is what
	// the allocation algorithm sizes pools from (a request waiting in the
	// kernel accept backlog is not a job in the server).
	start := p.Now()

	queries := t.sampleQueries(it.Queries)
	// Split servlet CPU across the query sequence: a pre phase, a slice
	// after each query, and a post phase.
	slices := queries + 2
	per := it.ServletMS / float64(slices)

	t.useCPU(p, per, it.CV)
	for q := 0; q < queries; q++ {
		if err := t.query(p, it); err != nil {
			t.res.stats.Failures++
			t.Threads.Release()
			t.log.Observe(p.Now(), p.Now()-start)
			t.link.Traverse(p)
			return err
		}
		t.useCPU(p, per, it.CV)
	}
	t.useCPU(p, per, it.CV)
	t.JVM.Allocate(p, it.AllocTomcatMiB)

	// Stream the response out through the connector while still holding
	// the servlet thread (but no DB connection).
	if t.cfg.ResponseTransferMS > 0 {
		t0 := p.Now()
		p.Sleep(sampleMS(t.r, t.cfg.ResponseTransferMS, transferCV))
		addSpan(p, t.Node.Name(), "response-transfer", t0)
	}

	t.Threads.Release()
	t.log.Observe(p.Now(), p.Now()-start)
	t.est.observe(p.Now() - entry)
	t.link.Traverse(p)
	return nil
}

// query issues one SQL statement through the connection pool and backend,
// retrying with backoff when resilience is enabled. Each attempt checks out
// a fresh connection — retries re-pay the checkout validation and routing
// work downstream, which is how retry storms multiply effective backend
// concurrency.
func (t *Tomcat) query(p *des.Proc, it *rubbos.Interaction) error {
	var err error
	attempts := t.res.attempts()
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if deadlinePassed(p) {
				// Out of budget mid-request: abort the retry loop instead
				// of burning another connection checkout downstream.
				return &t.errs[FailDeadline]
			}
			t.res.stats.Retries++
			if d := t.res.cfg.backoff(t.res.r, i-1); d > 0 {
				t0 := p.Now()
				p.Sleep(d)
				addSpan(p, t.Node.Name(), "backoff", t0)
			}
		}
		t0 := p.Now()
		ok, _ := t.Conns.AcquireTimeout(p, t.res.acquireTimeout())
		if !ok {
			t.res.stats.AcquireTimeouts++
			err = &t.errs[FailTimeout]
			continue
		}
		addSpan(p, t.Node.Name(), "conn-wait", t0)
		br := t.res.breaker(0)
		if br != nil && !br.Allow() {
			t.Conns.Release()
			err = &t.errs[FailOpen]
			continue
		}
		start := p.Now()
		e := t.backend.Checkout(p)
		if e == nil {
			e = t.backend.Query(p, it)
			t.backend.Release()
		}
		t.Conns.Release()
		if e == nil && t.res.enabled() && t.res.cfg.CallTimeout > 0 &&
			p.Now()-start > t.res.cfg.CallTimeout {
			t.res.stats.CallTimeouts++
			e = &t.errs[FailTimeout]
		}
		if br != nil {
			// A downstream deadline shed is budget exhaustion, not a peer
			// failure — it must not trip the breaker.
			br.Record(e == nil || isDeadline(e))
		}
		if e == nil {
			return nil
		}
		if isDeadline(e) {
			// Out of budget: retrying cannot possibly finish in time.
			return e
		}
		err = e
	}
	return err
}

// transferCV is the variation of a response's transfer to Apache.
var transferCV = rng.NewCV(0.3)

// useCPU runs meanMS of servlet work inflated by the concurrency overhead.
func (t *Tomcat) useCPU(p *des.Proc, meanMS float64, cv rng.CV) {
	t0 := p.Now()
	demand := meanMS * (1 + t.cfg.CtxSwitchCoeff*float64(t.Threads.InUse()-1))
	t.Node.CPU().Use(p, sampleMS(t.r, demand, cv))
	addSpan(p, t.Node.Name(), "cpu", t0)
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
