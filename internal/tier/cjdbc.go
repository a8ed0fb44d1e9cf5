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
	// ThrashCoeff scales the quadratic overhead beyond ThrashThreshold.
	ThrashCoeff float64
	// JVM parameterizes the heap/collector model.
	JVM jvm.Config
}

const (
	// ThrashThreshold is the concurrent-query count beyond which C-JDBC's
	// scheduling overhead turns super-linear (run-queue lengths far past
	// the core count: cache thrash, lock convoys).
	ThrashThreshold = 20
	// maxOverheadFactor caps C-JDBC's total demand inflation.
	maxOverheadFactor = 1.35
)

// DefaultCJDBCConfig returns the calibration for the paper's C-JDBC node.
func DefaultCJDBCConfig() CJDBCConfig {
	return CJDBCConfig{
		CtxSwitchCoeff: 0.002,
		ThrashCoeff:    0.005,
		JVM:            jvm.DefaultConfig(),
	}
}

// overheadFactor returns the demand inflation at the given concurrency.
func (cfg CJDBCConfig) overheadFactor(inflight int) float64 {
	f := 1 + cfg.CtxSwitchCoeff*float64(inflight-1)
	if over := inflight - ThrashThreshold; over > 0 && cfg.ThrashCoeff > 0 {
		f += cfg.ThrashCoeff * float64(over) * float64(over)
	}
	return min(f, maxOverheadFactor)
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

// The stages of a checkout and of a statement at C-JDBC, in
// inService.mid.stage; each call starts at midSend.
const (
	midSend    uint8 = iota // the hop in next
	midArrive               // crossing in
	midCPU                  // on the CPU: the validation, or the routing
	midLeave                // crossing back from the validation
	midCollect              // resting through a collection the routing's allocation started
	midRouted               // routed: the statement goes to a database next
	midDB                   // the statement at the database
)

// checkout marks one upstream connection as checked out and services its
// validation round (test-on-borrow ping issued by the application server's
// pool on every acquire), as a stage function (see Apache.Do). Every
// successful checkout must be paired with a Release; a refused checkout
// (server.refuse: a crashed middleware, or a request that cannot finish in
// budget) holds nothing.
func (c *CJDBC) checkout(p *des.Proc, s *inService) (bool, error) {
	l := &s.mid
	for {
		switch l.stage {
		case midSend:
			if err := c.refuse(p); err != nil {
				return c.back(p, &l.leg, err)
			}
			c.accountBusy()
			c.busy++
			s.t0 = p.Now()
			l.stage = midArrive
			if !c.link.Cross(p) {
				return false, nil
			}
		case midArrive:
			demand := validationMS * c.cfg.overheadFactor(c.busy)
			l.stage = midCPU
			if !c.use(p, time.Duration(demand*float64(time.Millisecond))) {
				return false, nil
			}
		case midCPU:
			l.stage = midLeave
			if !c.link.Cross(p) {
				return false, nil
			}
		case midLeave:
			addSpan(p, c.Node.Name(), "validate", s.t0)
			return true, nil
		case returning:
			return true, l.err
		}
	}
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

// query routes one SQL statement to a database server and waits for the
// result, as a stage function (see Apache.Do). A crashed middleware (or
// database server) surfaces as an error.
func (c *CJDBC) query(p *des.Proc, it *rubbos.Interaction, s *inService) (bool, error) {
	l := &s.mid
	for {
		switch l.stage {
		case midSend:
			l.stage = midArrive
			if !c.link.Cross(p) {
				return false, nil
			}
		case midArrive:
			if c.down {
				// Crashed mid-checkout-hold: the statement fails on the wire.
				return c.back(p, &l.leg, &c.errs[FailDown])
			}
			// Routing work: parse, schedule, and forward the statement.
			// Demand grows with concurrency (context switching across
			// resident busy threads, super-linear once the run queue far
			// exceeds the core count). GC pauses triggered by this query's
			// allocation count as routing time (the paper's pending-query
			// delay).
			l.start = p.Now()
			s.t0 = p.Now()
			demand := it.CJDBCMS * c.cfg.overheadFactor(c.busy)
			l.stage = midCPU
			if !c.use(p, sampleMS(c.r, demand, it.CV)) {
				return false, nil
			}
		case midCPU:
			l.stage = midRouted
			if pause, gc := c.JVM.Allocate(it.AllocCJDBCMiB); gc {
				l.stage = midCollect
				p.Rest(pause)
				return false, nil
			}
		case midCollect:
			c.JVM.Collected()
			l.stage = midRouted
		case midRouted:
			addSpan(p, c.Node.Name(), "route", s.t0)
			// Balance across database servers round-robin.
			l.peer = c.rr % len(c.backends)
			c.rr++
			s.db = dbLeg{}
			l.stage = midDB
		case midDB:
			done, err := c.backends[l.peer].query(p, it, s)
			if !done {
				return false, nil
			}
			c.log.Observe(p.Now(), p.Now()-l.start)
			c.est.observe(p.Now() - l.start)
			return c.back(p, &l.leg, err)
		case returning:
			return true, l.err
		}
	}
}

// ResetStats starts a new measurement window.
func (c *CJDBC) ResetStats() {
	// Reset the JVM first: the node snapshots the GC-time integral as its
	// overhead baseline, so the integral must not shrink afterwards.
	c.JVM.ResetStats()
	c.resetStats()
}
