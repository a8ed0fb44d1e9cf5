package tier

// Resilience mechanisms for the inter-tier hops — an extension beyond the
// paper's fault-free testbed. Each server can carry a ResilienceConfig that
// adds per-hop acquire/call timeouts, bounded retries with exponential
// backoff and deterministic jitter, a circuit breaker on its downstream hop
// (Apache→Tomcat, Tomcat→C-JDBC), and queue-depth admission control at the
// web tier. Everything is driven by the DES clock and seeded RNG streams,
// so fault scenarios replay deterministically. A nil config (the default)
// leaves every server on the paper's original fault-free request path.

import (
	"fmt"
	"strings"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/rng"
)

// FailKind classifies why a request (or hop attempt) failed.
type FailKind int

const (
	// FailDown: the server refused work (crash fault window).
	FailDown FailKind = iota
	// FailShed: the accept backlog or admission control rejected the
	// request.
	FailShed
	// FailTimeout: a pool-acquire or downstream call exceeded its budget.
	FailTimeout
	// FailOpen: the hop's circuit breaker was open.
	FailOpen
	// FailDeadline: the request's remaining end-to-end budget could not
	// cover the tier's recent service-time estimate, so it was shed before
	// queueing (deadline propagation; counted as shed, not error).
	FailDeadline
)

// String names the failure kind.
func (k FailKind) String() string {
	switch k {
	case FailDown:
		return "down"
	case FailShed:
		return "shed"
	case FailTimeout:
		return "timeout"
	case FailOpen:
		return "breaker-open"
	case FailDeadline:
		return "deadline"
	}
	return "unknown"
}

// Error is a request failure surfaced to the client.
type Error struct {
	Kind   FailKind
	Server string
}

// Error renders the failure.
func (e *Error) Error() string {
	return fmt.Sprintf("tier: %s: %s", e.Server, e.Kind)
}

// Shed reports whether the failure is a load-shedding rejection — admission
// control or deadline fail-fast — rather than a hard error. Callers that
// cannot import this package (the workload generators) detect shedding
// structurally via an interface{ Shed() bool } assertion.
func (e *Error) Shed() bool { return e.Kind == FailShed || e.Kind == FailDeadline }

// ErrKind extracts the failure kind of a request error (ok=false for nil or
// foreign errors).
func ErrKind(err error) (FailKind, bool) {
	if te, ok := err.(*Error); ok {
		return te.Kind, true
	}
	return 0, false
}

// ResilienceConfig tunes the per-server resilience mechanisms. The zero
// value disables everything it parameterizes; a nil *ResilienceConfig on a
// server disables the whole layer.
type ResilienceConfig struct {
	// AcquireTimeout bounds the wait for a pool unit (worker, servlet
	// thread, DB connection). 0 waits forever (the paper's behaviour).
	AcquireTimeout time.Duration
	// CallTimeout is the downstream-call deadline. The synchronous RPC
	// chain cannot abandon work in flight (neither could the real stack's
	// blocked threads); a call finishing past the deadline is counted as
	// failed — the response is thrown away and retried, which is exactly
	// how timeouts turn slow dependencies into duplicated work.
	CallTimeout time.Duration
	// Retries is the number of re-attempts after a failed downstream call
	// (0 = fail fast). The web tier fails over to the next application
	// server on retry.
	Retries int
	// BackoffBase is the first retry delay, doubling each attempt up to
	// BackoffMax. 0 retries immediately (the retry-storm configuration).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterFrac spreads each backoff uniformly over ±frac of itself,
	// drawn from a dedicated seeded stream (deterministic jitter).
	JitterFrac float64
	// Breaker parameterizes the circuit breaker on the downstream hop.
	Breaker BreakerConfig
	// MaxQueue, at the web tier, sheds requests arriving while this many
	// are already queued for a worker (0 = no admission control).
	MaxQueue int
	// Backlog, at the web tier, bounds the kernel accept queue ahead of
	// admission control: an arrival finding this many requests waiting at
	// the front door (queued for a worker, or getting their degraded
	// response) is dropped before the server sees it, at no CPU cost
	// (0 = unbounded).
	Backlog int
	// DegradedMS is the CPU cost of emitting the degraded/error response
	// for a shed or failed request (served without holding a worker).
	DegradedMS float64
	// Admission parameterizes the adaptive (CoDel-style) admission
	// controller at the web tier; the zero value disables it and keeps the
	// static MaxQueue check as the only front-door shed.
	Admission AdmissionConfig
}

// DefaultResilienceConfig returns a production-shaped configuration:
// half-second acquire timeouts, 2s call deadline, two retries with 25 ms
// exponential backoff and 20% jitter, a 5-failure breaker, and web-tier
// shedding at 200 queued requests.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		AcquireTimeout: 500 * time.Millisecond,
		CallTimeout:    2 * time.Second,
		Retries:        2,
		BackoffBase:    25 * time.Millisecond,
		BackoffMax:     400 * time.Millisecond,
		JitterFrac:     0.2,
		Breaker:        DefaultBreakerConfig(),
		MaxQueue:       200,
		DegradedMS:     0.05,
	}
}

// Fingerprint renders the configuration for journal fingerprints: its %+v
// form, without Backlog while that is zero, so fingerprints written before
// the field existed still match.
func (c ResilienceConfig) Fingerprint() string {
	s := fmt.Sprintf("%+v", c)
	if c.Backlog == 0 {
		s = strings.Replace(s, " Backlog:0 ", " ", 1)
	}
	return s
}

// backoff returns the delay before retry attempt `attempt` (0-based), with
// deterministic jitter drawn from r.
func (c *ResilienceConfig) backoff(r *rng.Rand, attempt int) time.Duration {
	if c.BackoffBase <= 0 {
		return 0
	}
	d := c.BackoffBase << uint(attempt)
	if c.BackoffMax > 0 && d > c.BackoffMax {
		d = c.BackoffMax
	}
	if c.JitterFrac > 0 && r != nil {
		d = time.Duration(float64(d) * (1 + c.JitterFrac*(2*r.Float64()-1)))
	}
	return d
}

// ResilienceStats counts the resilience layer's interventions on one server.
type ResilienceStats struct {
	Shed            uint64 // requests rejected at the front door (backlog drops and admission control)
	AdmissionSheds  uint64 // subset of Shed dropped by the adaptive controller
	AcquireTimeouts uint64 // pool waits abandoned
	CallTimeouts    uint64 // downstream calls past the deadline
	Retries         uint64 // re-attempts issued downstream
	Failures        uint64 // requests ultimately failed at this server
	BreakerOpens    uint64 // closed/half-open -> open transitions
	BreakerState    BreakerState
}

// BreakerState is the circuit breaker's operating mode.
type BreakerState int

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a circuit breaker. Enabled=false leaves the hop
// unprotected.
type BreakerConfig struct {
	Enabled bool
	// FailThreshold consecutive failures trip the breaker open.
	FailThreshold int
	// OpenFor is how long the breaker rejects before probing.
	OpenFor time.Duration
	// HalfOpenProbes bounds concurrent probe calls while half-open.
	HalfOpenProbes int
	// CloseAfter consecutive probe successes close the breaker.
	CloseAfter int
}

// DefaultBreakerConfig returns a 5-failure / 2-second / single-probe
// breaker.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{
		Enabled:        true,
		FailThreshold:  5,
		OpenFor:        2 * time.Second,
		HalfOpenProbes: 1,
		CloseAfter:     2,
	}
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 2 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.CloseAfter <= 0 {
		c.CloseAfter = 2
	}
	return c
}

// Breaker is a deterministic DES-clock circuit breaker guarding one
// downstream hop. State transitions happen synchronously inside Allow and
// Record, so replays are exact.
type Breaker struct {
	env   *des.Env
	cfg   BreakerConfig
	state BreakerState

	fails    int // consecutive failures while closed
	succ     int // consecutive probe successes while half-open
	inflight int // probes outstanding while half-open
	openedAt time.Duration

	opens       uint64
	transitions uint64
}

// NewBreaker creates a closed breaker (nil if cfg.Enabled is false).
func NewBreaker(env *des.Env, cfg BreakerConfig) *Breaker {
	if !cfg.Enabled {
		return nil
	}
	return &Breaker{env: env, cfg: cfg.withDefaults()}
}

// State returns the current mode, accounting for an elapsed open window.
func (b *Breaker) State() BreakerState {
	if b.state == BreakerOpen && b.env.Now()-b.openedAt >= b.cfg.OpenFor {
		return BreakerHalfOpen
	}
	return b.state
}

// Opens returns the number of times the breaker tripped open.
func (b *Breaker) Opens() uint64 { return b.opens }

// Transitions returns the total number of state changes.
func (b *Breaker) Transitions() uint64 { return b.transitions }

// Allow reports whether a call may proceed. While half-open it admits up to
// HalfOpenProbes concurrent probes. Each allowed call must be matched by a
// Record.
func (b *Breaker) Allow() bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.env.Now()-b.openedAt < b.cfg.OpenFor {
			return false
		}
		b.state = BreakerHalfOpen
		b.transitions++
		b.succ = 0
		b.inflight = 0
		fallthrough
	default: // BreakerHalfOpen
		if b.inflight >= b.cfg.HalfOpenProbes {
			return false
		}
		b.inflight++
		return true
	}
}

// Record reports the outcome of an allowed call.
func (b *Breaker) Record(ok bool) {
	switch b.state {
	case BreakerClosed:
		if ok {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.cfg.FailThreshold {
			b.trip()
		}
	case BreakerHalfOpen:
		if b.inflight > 0 {
			b.inflight--
		}
		if !ok {
			b.trip()
			return
		}
		b.succ++
		if b.succ >= b.cfg.CloseAfter {
			b.state = BreakerClosed
			b.transitions++
			b.fails = 0
		}
	case BreakerOpen:
		// A call admitted before the trip completed afterwards; its
		// outcome no longer matters.
	}
}

// trip moves to open and starts the cool-down window.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.transitions++
	b.opens++
	b.openedAt = b.env.Now()
	b.fails = 0
}

// resilience is the per-server bundle the tier models embed. It carries one
// breaker per downstream peer (per Tomcat at the web tier, one at the
// application tier), so a single crashed peer trips only its own breaker
// while the healthy peers keep serving failover traffic.
type resilience struct {
	cfg      *ResilienceConfig
	r        *rng.Rand
	breakers []*Breaker
	stats    ResilienceStats
}

// newResilience wires a config to a server with one downstream peer; nil
// cfg disables the layer.
func newResilience(env *des.Env, cfg *ResilienceConfig, r *rng.Rand) resilience {
	return newResilienceN(env, cfg, r, 1)
}

// newResilienceN wires a config to a server with n downstream peers.
func newResilienceN(env *des.Env, cfg *ResilienceConfig, r *rng.Rand, n int) resilience {
	res := resilience{cfg: cfg, r: r}
	if cfg != nil && cfg.Breaker.Enabled {
		res.breakers = make([]*Breaker, n)
		for i := range res.breakers {
			res.breakers[i] = NewBreaker(env, cfg.Breaker)
		}
	}
	return res
}

// breaker returns the breaker guarding downstream peer i (nil when
// breakers are disabled).
func (rs *resilience) breaker(i int) *Breaker {
	if len(rs.breakers) == 0 {
		return nil
	}
	return rs.breakers[i%len(rs.breakers)]
}

// enabled reports whether the resilience layer is active.
func (rs *resilience) enabled() bool { return rs.cfg != nil }

// acquireTimeout returns the configured pool-acquire budget (0 = infinite).
func (rs *resilience) acquireTimeout() time.Duration {
	if rs.cfg == nil {
		return 0
	}
	return rs.cfg.AcquireTimeout
}

// attempts returns the total downstream tries per request (1 + retries).
func (rs *resilience) attempts() int {
	if rs.cfg == nil {
		return 1
	}
	return 1 + rs.cfg.Retries
}

// Stats snapshots the counters, folding in the live breaker states: opens
// are summed across peers, and the reported state is the most-degraded one.
func (rs *resilience) Stats() *ResilienceStats {
	if !rs.enabled() {
		return nil
	}
	s := rs.stats
	for _, b := range rs.breakers {
		s.BreakerOpens += b.Opens()
		switch b.State() {
		case BreakerOpen:
			s.BreakerState = BreakerOpen
		case BreakerHalfOpen:
			if s.BreakerState != BreakerOpen {
				s.BreakerState = BreakerHalfOpen
			}
		}
	}
	return &s
}
