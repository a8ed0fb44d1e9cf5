// Package netsim models the network effects the paper's measurements hinge
// on: tier-to-tier LAN latency and — crucially for the Fig. 6–8 buffering
// effect — the TCP connection-close behaviour between the Apache server and
// the load-generating client nodes.
//
// In the paper's testbed, an Apache worker performs a "lingering close"
// after writing the response: it stays busy until the client's FIN arrives.
// Under high workload the client nodes fall behind and FIN replies develop a
// heavy tail, parking hundreds of workers in close-wait and starving the
// back-end tiers. We reproduce that with an explicit FIN-delay distribution
// whose tail mass grows with the per-client-node load (a documented
// substitution for modelling the clients' full TCP stacks).
package netsim

import (
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/rng"
)

// Link is a fixed-latency network hop between two tiers (1 Gbps LAN in the
// paper: latency dominates, bandwidth never binds at these request sizes).
// Link is a value type: copies handed to every tier share the optional
// Spike pointer, so a fault injector raising the spike slows all hops.
type Link struct {
	Latency time.Duration
	Spike   *Spike
}

// Delay returns the latency of one hop taken now, spike included.
func (l Link) Delay() time.Duration {
	d := l.Latency
	if l.Spike != nil {
		d += l.Spike.Extra()
	}
	return d
}

// Cross takes p over one hop and reports whether the hop is behind it: at
// once for a hop of no latency. Otherwise p rests through it
// (des.Proc.Rest): Cross schedules its next wake at the hop's end and
// reports false, and the caller must end its run or step.
func (l Link) Cross(p *des.Proc) bool {
	if d := l.Delay(); d > 0 {
		p.Rest(d)
		return false
	}
	return true
}

// Spike is a mutable extra-latency source for fault injection: every Link
// copy holding the pointer adds the current extra delay per traversal. The
// zero value adds nothing.
type Spike struct {
	extra time.Duration
}

// Set replaces the per-hop extra latency (0 clears the spike).
func (s *Spike) Set(d time.Duration) { s.extra = d }

// Extra returns the current per-hop extra latency.
func (s *Spike) Extra() time.Duration { return s.extra }

// The FIN-delay model's calibration for the paper topology: two client
// nodes, tails appearing as the emulated-user count passes ~3000 per node.
const (
	// finBaseMean is the mean FIN delay when client nodes are unloaded
	// (exponential).
	finBaseMean = 2 * time.Millisecond
	// finKnee is the per-client-node user count beyond which the tail
	// grows.
	finKnee = 3000
	// finTailProbMax bounds the fraction of closes that hit the slow tail.
	finTailProbMax = 0.8
	// finTailSlope converts relative overload ((users/node - knee)/knee)
	// into tail probability.
	finTailSlope = 2.0
	// finTailMin and finTailMax bound the slow-tail delay (uniform).
	finTailMin = 300 * time.Millisecond
	finTailMax = 1200 * time.Millisecond
)

// FinModel samples lingering-close delays.
type FinModel struct {
	r *rng.Rand
	// usersPerNode is the current emulated-user load per client node.
	usersPerNode float64
}

// NewFinModel creates a FIN-delay model with its own random stream.
func NewFinModel(r *rng.Rand) *FinModel {
	return &FinModel{r: r}
}

// SetLoad records the emulated-user count per client node; the tail
// probability follows it.
func (f *FinModel) SetLoad(usersPerNode float64) { f.usersPerNode = usersPerNode }

// TailProb returns the probability that a close waits for the slow tail at
// the current load.
func (f *FinModel) TailProb() float64 {
	if f.usersPerNode <= finKnee {
		return 0
	}
	p := finTailSlope * (f.usersPerNode - finKnee) / finKnee
	if p > finTailProbMax {
		p = finTailProbMax
	}
	return p
}

// Sample draws one FIN-reply delay.
func (f *FinModel) Sample() time.Duration {
	if f.r.Bool(f.TailProb()) {
		return time.Duration(f.r.Uniform(float64(finTailMin), float64(finTailMax)))
	}
	return time.Duration(f.r.Exp(float64(finBaseMean)))
}
