package trace

import "time"

// Ctx is the per-request context an open-system request carries down the
// tier chain (attached to the carrying process via des.Proc.SetData). It
// bundles the optional phase trace with the request's end-to-end deadline
// and interaction class, so every tier can make a local shed decision —
// the simulated analogue of deadline propagation in RPC metadata.
type Ctx struct {
	// Trace, when non-nil, records the request's per-phase spans.
	Trace *Trace
	// Deadline is the absolute simulation time by which the response must
	// be delivered (0 = no deadline). Tiers compare their remaining budget
	// against a recent service-time estimate and fail fast — counted as
	// shed, not error — when the budget cannot cover it.
	Deadline time.Duration
	// Write marks a write-class interaction; admission control protects
	// writes while browse traffic degrades first.
	Write bool
}

// Sampled returns the request's trace, or nil when it is not sampled.
func (c *Ctx) Sampled() *Trace { return c.Trace }

// remaining returns the budget left at now (negative once past the
// deadline); it returns a very large value when no deadline is set.
func (c *Ctx) remaining(now time.Duration) time.Duration {
	if c == nil || c.Deadline == 0 {
		return time.Duration(1<<63 - 1)
	}
	return c.Deadline - now
}
