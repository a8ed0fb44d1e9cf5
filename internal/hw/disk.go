package hw

import (
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/resource"
)

// Disk models a single mechanical disk (the paper's nodes carry 10k-rpm
// SCSI drives) as an FCFS device: one transfer at a time, queued arrivals
// served in order. The browsing mix is cache-resident and never touches
// it; write interactions pay a synchronous commit here.
type Disk struct {
	env    *des.Env
	queue  *resource.Pool
	holder *des.Proc // the process whose transfer is on the device
}

// NewDisk creates a disk device.
func NewDisk(env *des.Env, name string) *Disk {
	return &Disk{env: env, queue: resource.NewPool(env, name, 1)}
}

// Use begins one synchronous transfer of the given service time for p,
// queueing FCFS behind other transfers, and reports whether it is over:
// at once for a service of zero. Otherwise p waits, suspended in the queue
// or resting through its transfer; the caller must end its step, then call
// Resume with the same service at each of p's wakes until it reports true.
func (d *Disk) Use(p *des.Proc, service time.Duration) bool {
	if service <= 0 {
		return true
	}
	if d.queue.AcquireOrSuspend(p, 0) {
		d.holder = p
		p.Rest(service)
	}
	return false
}

// Resume takes p's transfer on at its wake: it frees the device at the
// transfer's end and reports true, or starts the transfer at p's turn.
func (d *Disk) Resume(p *des.Proc, service time.Duration) bool {
	if d.holder == p {
		d.holder = nil
		d.queue.Release()
		return true
	}
	d.queue.Resolve(p)
	d.holder = p
	p.Rest(service)
	return false
}

// Utilization returns the fraction of time the disk was busy since the
// last reset.
func (d *Disk) Utilization() float64 { return d.queue.Stats().Utilization }

// BusyIntegral returns accumulated busy seconds (the device serves one
// transfer at a time, so unit-seconds equal busy seconds). Window samplers
// diff successive readings. Pure read: never mutates the disk.
func (d *Disk) BusyIntegral() float64 { return d.queue.BusyIntegral() }

// ResetStats starts a new measurement interval.
func (d *Disk) ResetStats() { d.queue.ResetStats() }

// Audit delegates to the underlying transfer queue's invariant audit;
// quiescent requires the device idle (see resource.Pool.AuditQuiescent).
func (d *Disk) Audit(quiescent bool) error {
	if quiescent {
		return d.queue.AuditQuiescent()
	}
	return d.queue.Audit()
}

// AttachDisk adds a disk to the node (idempotent) and returns it. A logical
// view (Alias) attaches the physical node's disk instead of creating its
// own, so co-resident database servers queue FCFS behind one shared drive;
// the shared disk keeps the physical node's name.
func (n *Node) AttachDisk() *Disk {
	if n.host != nil {
		n.disk = n.host.AttachDisk()
		return n.disk
	}
	if n.disk == nil {
		n.disk = NewDisk(n.env, n.name+"/disk")
	}
	return n.disk
}

// Disk returns the node's disk, or nil if none was attached.
func (n *Node) Disk() *Disk { return n.disk }
