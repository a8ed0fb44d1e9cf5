package tier

import (
	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/hw"
	"github.com/softres/ntier/internal/netsim"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/rubbos"
)

// MySQL models one database server. The paper's browsing mix is
// cache-resident, so queries are CPU-bound; MySQL creates a thread per
// incoming connection, so its concurrency is bounded by the upstream
// C-JDBC/Tomcat connection pools and it needs no pool of its own.
type MySQL struct {
	env  *des.Env
	Node *hw.Node
	link netsim.Link
	r    *rng.Rand
	log  ServiceLog
	errs failures

	inflight int
	down     bool

	// est tracks recent query residence for the deadline admission check;
	// dlSheds counts deadline fail-fasts.
	est     estimator
	dlSheds uint64
}

// NewMySQL creates a database server on node.
func NewMySQL(env *des.Env, node *hw.Node, link netsim.Link, r *rng.Rand) *MySQL {
	return &MySQL{env: env, Node: node, link: link, r: r, errs: newFailures(node.Name())}
}

// SetDown marks the server crashed (refusing all queries) or restored.
func (m *MySQL) SetDown(down bool) { m.down = down }

// commitCV is the variation of a write's synchronous disk commit.
var commitCV = rng.NewCV(0.4)

// Query executes one SQL statement for the calling request process. A
// crashed server refuses the statement after the network hop.
func (m *MySQL) Query(p *des.Proc, it *rubbos.Interaction) error {
	m.link.Traverse(p)
	if m.down {
		m.link.Traverse(p)
		return &m.errs[FailDown]
	}
	if overDeadline(p, &m.est) {
		// Deadline propagation: don't burn database CPU on a statement
		// whose requester has already run out of budget.
		m.dlSheds++
		m.link.Traverse(p)
		return &m.errs[FailDeadline]
	}
	start := p.Now()
	m.inflight++
	m.Node.CPU().Use(p, sampleMS(m.r, it.MySQLMS, it.CV))
	// Write interactions commit synchronously: log flush to the disk,
	// FCFS behind other transfers. Reads are cache-resident.
	if it.WriteMS > 0 {
		if d := m.Node.Disk(); d != nil {
			t0 := p.Now()
			d.Use(p, sampleMS(m.r, it.WriteMS, commitCV))
			addSpan(p, m.Node.Name(), "disk-commit", t0)
		}
	}
	m.inflight--
	addSpan(p, m.Node.Name(), "exec", start)
	m.log.Observe(p.Now(), p.Now()-start)
	m.est.observe(p.Now() - start)
	m.link.Traverse(p)
	return nil
}

// DeadlineSheds returns the cumulative count of statements refused because
// the request's deadline budget could not cover the residence estimate.
func (m *MySQL) DeadlineSheds() uint64 { return m.dlSheds }

// Log returns the residence-time log.
func (m *MySQL) Log() *ServiceLog { return &m.log }

// ResetStats starts a new measurement window.
func (m *MySQL) ResetStats() {
	m.Node.ResetStats()
	m.log.Reset(m.env.Now())
}
