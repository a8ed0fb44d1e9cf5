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
	server
	inflight int
}

// NewMySQL creates a database server on node.
func NewMySQL(env *des.Env, node *hw.Node, link netsim.Link, r *rng.Rand) *MySQL {
	return &MySQL{server: newServer(env, node, link, r)}
}

// commitCV is the variation of a write's synchronous disk commit.
var commitCV = rng.NewCV(0.4)

// Query executes one SQL statement for the calling request process. After
// the network hop, a crash or the deadline can refuse it (server.refuse).
func (m *MySQL) Query(p *des.Proc, it *rubbos.Interaction) error {
	m.link.Traverse(p)
	if err := m.refuse(p); err != nil {
		return err
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

// ResetStats starts a new measurement window.
func (m *MySQL) ResetStats() { m.resetStats() }
