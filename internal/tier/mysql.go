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

// The stages of a statement at MySQL, in inService.db.stage.
const (
	dbSend   uint8 = iota // the hop in next
	dbArrive              // crossing in
	dbExec                // on the CPU
	dbCommit              // in the disk commit
	dbDone                // executed
)

// query executes one SQL statement, as a stage function (see Apache.Do).
// After the network hop, a crash or the deadline can refuse it.
func (m *MySQL) query(p *des.Proc, it *rubbos.Interaction, s *inService) (bool, error) {
	l := &s.db
	for {
		switch l.stage {
		case dbSend:
			l.stage = dbArrive
			if !m.link.Cross(p) {
				return false, nil
			}
		case dbArrive:
			if err := m.refuse(p); err != nil {
				return m.back(p, &l.leg, err)
			}
			l.start = p.Now()
			m.inflight++
			l.stage = dbExec
			if !m.use(p, sampleMS(m.r, it.MySQLMS, it.CV)) {
				return false, nil
			}
		case dbExec:
			// Write interactions commit synchronously: log flush to the
			// disk, FCFS behind other transfers. Reads are cache-resident.
			l.stage = dbDone
			if d := m.Node.Disk(); it.WriteMS > 0 && d != nil {
				s.t0 = p.Now()
				l.service = sampleMS(m.r, it.WriteMS, commitCV)
				if !d.Use(p, l.service) {
					l.stage = dbCommit
					return false, nil
				}
				addSpan(p, m.Node.Name(), "disk-commit", s.t0)
			}
		case dbCommit:
			if !m.Node.Disk().Resume(p, l.service) {
				return false, nil
			}
			addSpan(p, m.Node.Name(), "disk-commit", s.t0)
			l.stage = dbDone
		case dbDone:
			m.inflight--
			addSpan(p, m.Node.Name(), "exec", l.start)
			m.log.Observe(p.Now(), p.Now()-l.start)
			m.est.observe(p.Now() - l.start)
			return m.back(p, &l.leg, nil)
		case returning:
			return true, l.err
		}
	}
}

// ResetStats starts a new measurement window.
func (m *MySQL) ResetStats() { m.resetStats() }
