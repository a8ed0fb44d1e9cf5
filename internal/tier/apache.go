package tier

import (
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/hw"
	"github.com/softres/ntier/internal/metrics"
	"github.com/softres/ntier/internal/netsim"
	"github.com/softres/ntier/internal/resource"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/rubbos"
)

// ApacheConfig tunes the web-server model.
type ApacheConfig struct {
	Workers int // worker-MPM thread pool size (#W_T)
	// Fin parameterizes the lingering-close (client FIN wait) model;
	// KeepAlive is off in the paper, so every request ends with a close.
	Fin netsim.FinConfig
}

// DefaultApacheConfig returns the calibration for the paper's Apache node.
func DefaultApacheConfig(workers int) ApacheConfig {
	return ApacheConfig{Workers: workers, Fin: netsim.DefaultFinConfig()}
}

// Apache models the web server: a worker thread pool that parses the
// request, proxies it to an application server, serves the static
// follow-ups from its memory cache, and then performs a lingering close,
// holding the worker until the client's FIN arrives. Under high client-side
// load the FIN tail parks a large share of the workers — the paper's
// buffering effect (§III-C).
//
// With a ResilienceConfig attached (SetResilience) the server additionally
// sheds requests when the worker queue is deep, bounds the worker wait,
// retries failed proxy calls against the next application server
// (failover), and guards the Apache→Tomcat hop with a circuit breaker.
type Apache struct {
	env  *des.Env
	Node *hw.Node
	cfg  ApacheConfig
	link netsim.Link
	r    *rng.Rand
	log  ServiceLog

	Workers *resource.Pool
	Fin     *netsim.FinModel

	tomcats []*Tomcat
	rr      int

	res  resilience
	adm  *admission // adaptive admission control (nil unless configured)
	down bool

	// est tracks recent time-to-response-delivered (excluding the lingering
	// close) for the deadline admission check; dlSheds counts requests shed
	// because their budget could not cover it.
	est     estimator
	dlSheds uint64

	// rejecting counts the requests whose degraded response is on the CPU;
	// with Workers.Queued() it is the accept backlog the Backlog bound
	// holds. backlogDrops counts the arrivals dropped at that bound.
	rejecting    int
	backlogDrops uint64

	// finLoad is the emulated-user count per client node, driving the FIN
	// tail (set by the topology builder).
	finLoad float64

	// clientLink, when set, is the shared capacity-limited segment the
	// response is sent over (worker held during the send).
	clientLink *netsim.SharedLink

	// connecting counts workers interacting (or waiting to interact) with
	// the Tomcat tier — Threads_connectingTomcat in Fig. 7(c).
	connecting int

	// finWaiting counts workers parked in the lingering close, waiting for
	// the client FIN — the buffered share of the pool in Fig. 7(c)/Fig. 8.
	finWaiting int

	// Optional per-second timelines for the Fig. 7/8 analysis.
	processed    *metrics.Windows // requests completed per second
	ptTotal      *metrics.Windows // worker busy time per request (ms)
	ptConnecting *metrics.Windows // time interacting with Tomcat (ms)
}

// NewApache creates the web server on node, balancing over tomcats.
func NewApache(env *des.Env, node *hw.Node, cfg ApacheConfig, tomcats []*Tomcat, link netsim.Link, r *rng.Rand) *Apache {
	return &Apache{
		env:     env,
		Node:    node,
		cfg:     cfg,
		link:    link,
		r:       r,
		Workers: resource.NewPool(env, node.Name()+"/workers", cfg.Workers),
		Fin:     netsim.NewFinModel(cfg.Fin, rng.NewStream(r.Uint64(), "fin")),
		tomcats: tomcats,
	}
}

// Config returns the server's configuration.
func (a *Apache) Config() ApacheConfig { return a.cfg }

// SetResilience attaches the resilience layer; r seeds the backoff jitter.
// It must be called before the simulation starts. A nil cfg keeps the
// original fault-free path.
func (a *Apache) SetResilience(cfg *ResilienceConfig, r *rng.Rand) {
	a.res = newResilienceN(a.env, cfg, r, len(a.tomcats))
	if cfg != nil && cfg.Admission.Enabled {
		// A dedicated stream for drop draws, so enabling admission never
		// shifts the backoff-jitter sequence of the same configuration.
		a.adm = newAdmission(a.env, cfg.Admission,
			rng.NewStream(r.Uint64(), "admission"), a.Workers.Queued)
	}
}

// SetDown marks the server crashed (refusing all work) or restored.
func (a *Apache) SetDown(down bool) { a.down = down }

// Down reports whether the server is refusing work.
func (a *Apache) Down() bool { return a.down }

// Resilience returns the resilience counters (nil when the layer is off).
func (a *Apache) Resilience() *ResilienceStats { return a.res.Stats() }

// DeadlineSheds returns the cumulative count of requests shed because their
// deadline budget could not cover this server's residence estimate.
func (a *Apache) DeadlineSheds() uint64 { return a.dlSheds }

// BacklogDrops returns the cumulative count of arrivals dropped at a full
// accept backlog (ResilienceConfig.Backlog). Pure read.
func (a *Apache) BacklogDrops() uint64 { return a.backlogDrops }

// Sheds returns the cumulative count of requests this server refused at the
// front door (accept-backlog drops, static queue-depth sheds, adaptive
// admission drops, and deadline fail-fasts). Pure read — safe for
// observability probes.
func (a *Apache) Sheds() uint64 {
	n := a.dlSheds
	if a.res.enabled() {
		n += a.res.stats.Shed
	}
	return n
}

// AdmissionLevel returns the adaptive controller's current drop probability
// for browse traffic (0 without a controller). Pure read.
func (a *Apache) AdmissionLevel() float64 {
	if a.adm == nil {
		return 0
	}
	return a.adm.Level()
}

// Breakers returns the per-Tomcat circuit breakers (nil if not enabled).
func (a *Apache) Breakers() []*Breaker { return a.res.breakers }

// Connecting returns the number of workers currently interacting (or
// queued to interact) with the Tomcat tier.
func (a *Apache) Connecting() int { return a.connecting }

// FinWaiting returns the number of workers currently parked in the
// lingering close (holding a pool unit while waiting for the client FIN).
func (a *Apache) FinWaiting() int { return a.finWaiting }

// EnableTimeline starts recording the Fig. 7/8 per-interval series from
// `start`.
func (a *Apache) EnableTimeline(start, interval time.Duration) {
	a.processed = metrics.NewWindows(start, interval)
	a.ptTotal = metrics.NewWindows(start, interval)
	a.ptConnecting = metrics.NewWindows(start, interval)
}

// Timeline returns the recorded per-interval series (nil before
// EnableTimeline): requests processed, worker busy ms, connecting ms.
func (a *Apache) Timeline() (processed, ptTotal, ptConnecting *metrics.Windows) {
	return a.processed, a.ptTotal, a.ptConnecting
}

// Do serves one complete page interaction for the calling browser process
// (rubbos.Target): the dynamic request proxied to Tomcat plus the static
// follow-ups, then the connection close. A non-nil error means the browser
// received an error (or degraded) response instead of the page.
//
// Do splits at the worker acquire. A request that must queue for a worker
// holds nothing yet, so it waits suspended (resource.Pool.AcquireOrSuspend):
// Do sets c.Queued and returns false, and the run its grant or acquire
// timeout wakes calls Do again to go on from the acquire.
func (a *Apache) Do(p *des.Proc, it *rubbos.Interaction, c *rubbos.Call) (bool, error) {
	if c.Queued {
		c.Queued = false
		ok, wait := a.Workers.Resolve(p)
		t0 := p.Now() - wait
		if ok {
			return true, a.serve(p, it, t0)
		}
		a.res.stats.AcquireTimeouts++
		a.res.stats.Failures++
		addSpan(p, a.Node.Name(), "worker-timeout", t0)
		a.link.Traverse(p)
		return true, &Error{Kind: FailTimeout, Server: a.Node.Name()}
	}
	if err := a.admit(p, it); err != nil {
		return true, err
	}
	t0 := p.Now()
	if !a.Workers.AcquireOrSuspend(p, a.res.acquireTimeout()) {
		c.Queued = true
		return false, nil
	}
	return true, a.serve(p, it, t0)
}

// admit takes the request in at the front door: the network hop, then the
// refusals that come before any worker is held — a crashed server, a full
// accept backlog, a deadline the residence estimate cannot meet, a full
// queue, and adaptive admission. A refused request gets its error response
// here.
func (a *Apache) admit(p *des.Proc, it *rubbos.Interaction) error {
	a.link.Traverse(p)
	if a.down {
		// Connection refused: the client learns after the network hop.
		a.link.Traverse(p)
		return &Error{Kind: FailDown, Server: a.Node.Name()}
	}
	if a.res.enabled() && a.res.cfg.Backlog > 0 && a.Workers.Queued()+a.rejecting >= a.res.cfg.Backlog {
		// Accept-queue overflow: the kernel drops the connection before
		// the server reads it, so the refusal costs no CPU. Without this
		// bound every refusal is a degraded response sharing Apache's CPU,
		// and a flood of them starves the requests being served (receive
		// livelock).
		a.res.stats.Shed++
		a.backlogDrops++
		a.link.Traverse(p)
		return &Error{Kind: FailShed, Server: a.Node.Name()}
	}
	if overDeadline(p, &a.est) {
		// Deadline propagation: the remaining budget cannot cover this
		// server's recent time-to-response, so fail fast before queueing.
		a.dlSheds++
		a.degraded(p)
		a.link.Traverse(p)
		return &Error{Kind: FailDeadline, Server: a.Node.Name()}
	}
	if a.res.enabled() && a.res.cfg.MaxQueue > 0 && a.Workers.Queued() >= a.res.cfg.MaxQueue {
		// Admission control: reject before tying up a worker; the
		// degraded response costs a sliver of CPU (error page).
		a.res.stats.Shed++
		a.degraded(p)
		a.link.Traverse(p)
		return &Error{Kind: FailShed, Server: a.Node.Name()}
	}
	if a.adm != nil && a.adm.drop(it.Write) {
		// Adaptive admission control: the standing worker wait is over
		// target, shed at the front door (browse before writes).
		a.res.stats.Shed++
		a.res.stats.AdmissionSheds++
		a.degraded(p)
		a.link.Traverse(p)
		return &Error{Kind: FailShed, Server: a.Node.Name()}
	}
	return nil
}

// serve is the request's service, on the worker it queued for since
// admitted, the time it passed the front door.
func (a *Apache) serve(p *des.Proc, it *rubbos.Interaction, admitted time.Duration) error {
	addSpan(p, a.Node.Name(), "worker-wait", admitted)
	if a.adm != nil {
		a.adm.observeWait(p.Now() - admitted)
	}
	// Residence is measured while holding a worker (see Tomcat.Serve).
	busyStart := p.Now()

	// Request parsing and response/static-content work, half before the
	// proxy call and half after. Static follow-ups are cache hits served
	// by the same worker and are folded into the Apache CPU demand.
	t0 := p.Now()
	a.Node.CPU().Use(p, sampleMS(a.r, it.ApacheMS/2, it.CV))
	addSpan(p, a.Node.Name(), "cpu", t0)

	a.connecting++
	connStart := p.Now()
	err := a.proxy(p, it)
	connDur := p.Now() - connStart
	a.connecting--

	if err != nil {
		// Error response: close fast (no static follow-ups, no
		// lingering close worth modelling for an aborted connection).
		a.res.stats.Failures++
		busy := p.Now() - busyStart
		a.Workers.Release()
		a.log.Observe(p.Now(), busy)
		a.link.Traverse(p)
		return err
	}

	t0 = p.Now()
	a.Node.CPU().Use(p, sampleMS(a.r, it.ApacheMS/2, it.CV))
	addSpan(p, a.Node.Name(), "cpu", t0)

	// Send the response (page plus static follow-ups) over the shared
	// client-facing segment, still holding the worker.
	if a.clientLink != nil {
		t0 = p.Now()
		a.clientLink.Transfer(p, it.ResponseKB)
		addSpan(p, a.Node.Name(), "client-send", t0)
	}

	// The client has the full response at this point; the lingering close
	// below holds the worker but adds nothing to the user-visible latency,
	// so the deadline estimator observes time-to-response-delivered here.
	a.est.observe(p.Now() - admitted)

	// Lingering close: the worker stays busy until the client FIN arrives.
	a.Fin.SetLoad(a.finLoad)
	if !a.Fin.Disabled() {
		t0 = p.Now()
		a.finWaiting++
		p.Sleep(a.Fin.Sample())
		a.finWaiting--
		addSpan(p, a.Node.Name(), "fin-wait", t0)
	}

	busy := p.Now() - busyStart
	a.Workers.Release()
	now := p.Now()
	a.log.Observe(now, busy)
	if a.processed != nil {
		a.processed.Observe(now, 1)
		a.ptTotal.Observe(now, float64(busy)/float64(time.Millisecond))
		a.ptConnecting.Observe(now, float64(connDur)/float64(time.Millisecond))
	}
	a.link.Traverse(p)
	return nil
}

// proxy forwards the dynamic request to the application tier: one attempt
// on the fault-free path, or up to 1+Retries attempts with breaker checks,
// backoff, and round-robin failover when resilience is enabled.
func (a *Apache) proxy(p *des.Proc, it *rubbos.Interaction) error {
	var err error
	attempts := a.res.attempts()
	for i := 0; i < attempts; i++ {
		if i > 0 {
			a.res.stats.Retries++
			if d := a.res.cfg.backoff(a.res.r, i-1); d > 0 {
				t0 := p.Now()
				p.Sleep(d)
				addSpan(p, a.Node.Name(), "backoff", t0)
			}
		}
		idx := a.rr % len(a.tomcats)
		tc := a.tomcats[idx]
		a.rr++
		br := a.res.breaker(idx)
		if br != nil && !br.Allow() {
			err = &Error{Kind: FailOpen, Server: tc.Node.Name()}
			continue
		}
		start := p.Now()
		e := tc.Serve(p, it)
		if e == nil && a.res.enabled() && a.res.cfg.CallTimeout > 0 &&
			p.Now()-start > a.res.cfg.CallTimeout {
			// The response arrived past the deadline: the proxy already
			// gave up, so the completed work is wasted.
			a.res.stats.CallTimeouts++
			e = &Error{Kind: FailTimeout, Server: tc.Node.Name()}
		}
		if br != nil {
			// A downstream deadline shed is the request running out of
			// budget, not the peer failing — it must not trip the breaker.
			br.Record(e == nil || isDeadline(e))
		}
		if e == nil {
			return nil
		}
		if isDeadline(e) {
			// Out of budget: retrying cannot possibly finish in time.
			return e
		}
		err = e
	}
	return err
}

// isDeadline reports whether err is a deadline fail-fast.
func isDeadline(err error) bool {
	k, ok := ErrKind(err)
	return ok && k == FailDeadline
}

// degraded emits the error/degraded response without holding a worker;
// the request counts toward the accept backlog while it does.
func (a *Apache) degraded(p *des.Proc) {
	if a.res.enabled() && a.res.cfg.DegradedMS > 0 {
		a.rejecting++
		a.Node.CPU().Use(p, time.Duration(a.res.cfg.DegradedMS*float64(time.Millisecond)))
		a.rejecting--
	}
}

// SetFinLoad records the per-client-node user load (see
// rubbos.Workload.UsersPerNode).
func (a *Apache) SetFinLoad(usersPerNode float64) { a.finLoad = usersPerNode }

// SetClientLink attaches the shared client-facing network segment (nil
// disables the bandwidth model).
func (a *Apache) SetClientLink(l *netsim.SharedLink) { a.clientLink = l }

// Log returns the residence-time log.
func (a *Apache) Log() *ServiceLog { return &a.log }

// ResetStats starts a new measurement window.
func (a *Apache) ResetStats() {
	a.Node.ResetStats()
	a.Workers.ResetStats()
	a.log.Reset(a.env.Now())
}
