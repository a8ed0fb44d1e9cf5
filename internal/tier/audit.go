// Invariant audit hooks for the chaos oracles. Every server exposes a
// cheap pure-read Audit: the structural checks always hold, and with
// quiescent=true the server must additionally be fully recovered — no
// request in flight, no worker parked, crash flag cleared, soft-resource
// pools back to their leak-free capacity. A violation after a drained
// fault plan points at lost accounting in the simulator itself (the
// failure mode the paper's soft-resource bookkeeping — thread and
// connection counts per tier, §III — makes observable).

package tier

import "fmt"

// Audit checks the web server's bookkeeping; quiescent additionally
// requires every worker returned (none connecting downstream, none parked
// in the lingering close), no degraded response in progress and the crash
// flag cleared.
func (a *Apache) Audit(quiescent bool) error {
	if a.connecting < 0 || a.finWaiting < 0 || a.rejecting < 0 {
		return fmt.Errorf("tier: %s worker gauges negative (connecting=%d finwait=%d rejecting=%d)",
			a.Node.Name(), a.connecting, a.finWaiting, a.rejecting)
	}
	if quiescent {
		if a.down {
			return fmt.Errorf("tier: %s still down after reverts", a.Node.Name())
		}
		if a.connecting != 0 || a.finWaiting != 0 || a.rejecting != 0 {
			return fmt.Errorf("tier: %s not quiescent (connecting=%d finwait=%d rejecting=%d)",
				a.Node.Name(), a.connecting, a.finWaiting, a.rejecting)
		}
		return a.Workers.AuditQuiescent()
	}
	return a.Workers.Audit()
}

// Audit checks the application server's thread and connection pools;
// quiescent requires both drained and the crash flag cleared.
func (t *Tomcat) Audit(quiescent bool) error {
	if quiescent {
		if t.down {
			return fmt.Errorf("tier: %s still down after reverts", t.Node.Name())
		}
		if err := t.Threads.AuditQuiescent(); err != nil {
			return err
		}
		return t.Conns.AuditQuiescent()
	}
	if err := t.Threads.Audit(); err != nil {
		return err
	}
	return t.Conns.Audit()
}

// Audit checks the middleware's connection-checkout accounting; quiescent
// requires every upstream checkout released and the crash flag cleared.
func (c *CJDBC) Audit(quiescent bool) error {
	if c.busy < 0 {
		return fmt.Errorf("tier: %s has %d connections checked out", c.Node.Name(), c.busy)
	}
	if c.upstreamConns > 0 && c.busy > c.upstreamConns {
		return fmt.Errorf("tier: %s has %d connections checked out of %d upstream", c.Node.Name(), c.busy, c.upstreamConns)
	}
	if quiescent {
		if c.down {
			return fmt.Errorf("tier: %s still down after reverts", c.Node.Name())
		}
		if c.busy != 0 {
			return fmt.Errorf("tier: %s not quiescent (%d connections checked out)", c.Node.Name(), c.busy)
		}
	}
	return nil
}

// Audit checks the database's in-flight gauge; quiescent requires it
// drained and the crash flag cleared.
func (m *MySQL) Audit(quiescent bool) error {
	if m.inflight < 0 {
		return fmt.Errorf("tier: %s has %d queries in flight", m.Node.Name(), m.inflight)
	}
	if quiescent {
		if m.down {
			return fmt.Errorf("tier: %s still down after reverts", m.Node.Name())
		}
		if m.inflight != 0 {
			return fmt.Errorf("tier: %s not quiescent (%d queries in flight)", m.Node.Name(), m.inflight)
		}
	}
	return nil
}
