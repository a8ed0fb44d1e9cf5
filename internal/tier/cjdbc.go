package tier

import (
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/hw"
	"github.com/softres/ntier/internal/jvm"
	"github.com/softres/ntier/internal/netsim"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/rubbos"
)

// CJDBCConfig tunes the clustering-middleware model.
type CJDBCConfig struct {
	// CtxSwitchCoeff inflates per-query CPU demand by this fraction per
	// additional concurrent query (thread scheduling/locking overhead).
	CtxSwitchCoeff float64
	// ThrashThreshold is the concurrent-query count beyond which scheduling
	// overhead turns super-linear (run-queue lengths far past the core
	// count: cache thrash, lock convoys).
	ThrashThreshold int
	// ThrashCoeff scales the quadratic overhead beyond the threshold.
	ThrashCoeff float64
	// MaxOverheadFactor caps the total demand inflation.
	MaxOverheadFactor float64
	// JVM parameterizes the heap/collector model.
	JVM jvm.Config
}

// DefaultCJDBCConfig returns the calibration for the paper's C-JDBC node.
func DefaultCJDBCConfig() CJDBCConfig {
	return CJDBCConfig{
		CtxSwitchCoeff:    0.002,
		ThrashThreshold:   20,
		ThrashCoeff:       0.005,
		MaxOverheadFactor: 1.35,
		JVM:               jvm.DefaultConfig(),
	}
}

// overheadFactor returns the demand inflation at the given concurrency.
func (cfg CJDBCConfig) overheadFactor(inflight int) float64 {
	f := 1 + cfg.CtxSwitchCoeff*float64(inflight-1)
	if over := inflight - cfg.ThrashThreshold; over > 0 && cfg.ThrashCoeff > 0 {
		f += cfg.ThrashCoeff * float64(over) * float64(over)
	}
	if cfg.MaxOverheadFactor > 0 && f > cfg.MaxOverheadFactor {
		f = cfg.MaxOverheadFactor
	}
	return f
}

// CJDBC models the database clustering middleware. It has no thread pool of
// its own: the paper notes each Tomcat database connection maps one-to-one
// to a request-handling thread in C-JDBC (and one in MySQL), so its resident
// thread count — and therefore its JVM live set — is the *sum of the
// upstream connection-pool capacities*, whether those connections are busy
// or idle. That is exactly why over-allocating the Tomcat DB connection pool
// poisons this tier (paper §III-B).
type CJDBC struct {
	server
	cfg CJDBCConfig
	JVM *jvm.JVM

	backends []*MySQL
	rr       int

	// upstreamConns is the total capacity of all Tomcat DB connection
	// pools, set by the topology builder after wiring.
	upstreamConns int
	// busy is the number of upstream connections currently checked out —
	// each one a busy request-handling thread in this process.
	busy int
	// busyIntegral accumulates busy-unit-seconds so scenarios can report
	// the mean effective concurrency (the retry-amplification metric).
	busyIntegral float64
	lastBusy     time.Duration
}

// NewCJDBC creates the middleware on node, balancing over backends.
func NewCJDBC(env *des.Env, node *hw.Node, cfg CJDBCConfig, backends []*MySQL, link netsim.Link, r *rng.Rand) *CJDBC {
	c := &CJDBC{server: newServer(env, node, link, r), cfg: cfg, backends: backends}
	c.JVM = jvm.New(env, node.Name()+"/jvm", node.CPU(), cfg.JVM, func() int {
		return c.upstreamConns + c.busy
	})
	node.AddOverhead(c.JVM.GCTimeIntegral)
	return c
}

// SetUpstreamConns records the total upstream DB-connection capacity (one
// resident C-JDBC thread each).
func (c *CJDBC) SetUpstreamConns(n int) { c.upstreamConns = n }

// UpstreamConns returns the resident thread count from upstream pools.
func (c *CJDBC) UpstreamConns() int { return c.upstreamConns }

// Busy returns the number of connections currently checked out (busy
// request-handling threads).
func (c *CJDBC) Busy() int { return c.busy }

// accountBusy integrates the busy-concurrency level up to now. Called only
// on state changes (Checkout/Release) so reads stay pure.
func (c *CJDBC) accountBusy() {
	now := c.env.Now()
	if dt := now - c.lastBusy; dt > 0 {
		c.busyIntegral += float64(c.busy) * dt.Seconds()
	}
	c.lastBusy = now
}

// BusyIntegral returns accumulated busy-unit-seconds of checked-out
// connections; scenario samplers diff readings for mean concurrency.
// Pure read: never mutates the middleware.
func (c *CJDBC) BusyIntegral() float64 {
	total := c.busyIntegral
	if dt := c.env.Now() - c.lastBusy; dt > 0 {
		total += float64(c.busy) * dt.Seconds()
	}
	return total
}

// Checkout marks one upstream connection as checked out and services its
// validation round (test-on-borrow ping issued by the application server's
// pool on every acquire). Every successful Checkout must be paired with a
// Release; a refused checkout (server.refuse: a crashed middleware, or a
// request that cannot finish in budget) holds nothing.
func (c *CJDBC) Checkout(p *des.Proc) error {
	if err := c.refuse(p); err != nil {
		return err
	}
	c.accountBusy()
	c.busy++
	t0 := p.Now()
	c.link.Traverse(p)
	demand := validationMS * c.cfg.overheadFactor(c.busy)
	c.Node.CPU().Use(p, time.Duration(demand*float64(time.Millisecond)))
	c.link.Traverse(p)
	addSpan(p, c.Node.Name(), "validate", t0)
	return nil
}

// Release returns the checked-out connection; its handler thread idles.
func (c *CJDBC) Release() {
	if c.busy <= 0 {
		panic("tier: C-JDBC release without checkout")
	}
	c.accountBusy()
	c.busy--
}

// validationMS is the routing cost of a checkout-validation ping.
const validationMS = 0.05

// Query routes one SQL statement to a database server and waits for the
// result. A crashed middleware (or database server) surfaces as an error.
func (c *CJDBC) Query(p *des.Proc, it *rubbos.Interaction) error {
	c.link.Traverse(p)
	if c.down {
		// Crashed mid-checkout-hold: the statement fails on the wire.
		c.link.Traverse(p)
		return &c.errs[FailDown]
	}
	start := p.Now()

	// Routing work: parse, schedule, and forward the statement. Demand
	// grows with concurrency (context switching across resident busy
	// threads, super-linear once the run queue far exceeds the core count).
	// GC pauses triggered by this query's allocation count as routing time
	// (the paper's pending-query delay).
	t0 := p.Now()
	demand := it.CJDBCMS * c.cfg.overheadFactor(c.busy)
	c.Node.CPU().Use(p, sampleMS(c.r, demand, it.CV))
	c.JVM.Allocate(p, it.AllocCJDBCMiB)
	addSpan(p, c.Node.Name(), "route", t0)

	// Balance across database servers round-robin.
	be := c.backends[c.rr%len(c.backends)]
	c.rr++
	err := be.Query(p, it)

	c.log.Observe(p.Now(), p.Now()-start)
	c.est.observe(p.Now() - start)
	c.link.Traverse(p)
	return err
}

// ResetStats starts a new measurement window.
func (c *CJDBC) ResetStats() {
	// Reset the JVM first: the node snapshots the GC-time integral as its
	// overhead baseline, so the integral must not shrink afterwards.
	c.JVM.ResetStats()
	c.resetStats()
}
