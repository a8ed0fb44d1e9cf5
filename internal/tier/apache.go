package tier

import (
	"fmt"
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
	// FinWait arms the lingering close: the worker waits for the client's
	// FIN (netsim.FinModel). KeepAlive is off in the paper, so every
	// request ends with a close.
	FinWait bool
}

// DefaultApacheConfig returns the calibration for the paper's Apache node.
func DefaultApacheConfig(workers int) ApacheConfig {
	return ApacheConfig{Workers: workers, FinWait: true}
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
	// The estimator tracks time-to-response-delivered, excluding the
	// lingering close.
	server

	Workers *resource.Pool
	Fin     *netsim.FinModel // nil without the FIN wait

	tomcats []*Tomcat
	rr      int

	res resilience
	adm *admission // adaptive admission control (nil unless configured)

	// rejecting counts the requests whose degraded response is on the CPU;
	// with Workers.Queued() it is the accept backlog the Backlog bound
	// holds. backlogDrops counts the arrivals dropped at that bound.
	rejecting    int
	backlogDrops uint64

	// finLoad is the emulated-user count per client node, driving the FIN
	// tail (set by the topology builder).
	finLoad float64

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

	// recs holds the in-service records of this server's requests, each
	// at the handle its rubbos.Call carries less one; spare lists the
	// handles not in use.
	recs  []*inService
	spare []uint32
}

// NewApache creates the web server on node, balancing over tomcats.
func NewApache(env *des.Env, node *hw.Node, cfg ApacheConfig, tomcats []*Tomcat, link netsim.Link, r *rng.Rand) *Apache {
	a := &Apache{
		server:  newServer(env, node, link, r),
		Workers: resource.NewPool(env, node.Name()+"/workers", cfg.Workers),
		tomcats: tomcats,
	}
	// The FIN stream is drawn either way, so the switch never shifts the
	// server's demand draws.
	fin := rng.NewStream(r.Uint64(), "fin")
	if cfg.FinWait {
		a.Fin = netsim.NewFinModel(fin)
	}
	return a
}

// SetResilience attaches the resilience layer; r seeds the backoff jitter.
// It must be called before the simulation starts. A nil cfg keeps the
// original fault-free path.
func (a *Apache) SetResilience(cfg *ResilienceConfig, r *rng.Rand) {
	a.res = newResilienceN(a.env, cfg, r, len(a.tomcats))
	if cfg != nil && cfg.Admission {
		// A dedicated stream for drop draws, so enabling admission never
		// shifts the backoff-jitter sequence of the same configuration.
		a.adm = newAdmission(a.env, rng.NewStream(r.Uint64(), "admission"), a.Workers.Queued)
	}
}

// Resilience returns the resilience counters (nil when the layer is off).
func (a *Apache) Resilience() *ResilienceStats { return a.res.Stats() }

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
// Do is the front door of the request's in-service path, and each server's
// part of it is a stage function of Do's shape (see the package doc): it
// returns false wherever the request waits, and then the caller must end
// its step; its next dispatch calls Do again to go on. Do records the
// front-door stage in c, and, from the worker grant until the response
// reaches the client, the rest in an in-service record c.Rec names.
func (a *Apache) Do(p *des.Proc, it *rubbos.Interaction, c *rubbos.Call) (bool, error) {
	switch c.Stage {
	case sending:
		c.Stage = arriving
		if !a.link.Cross(p) {
			return false, nil
		}
		fallthrough
	case arriving:
		if a.down {
			// Connection refused: the client learns after the network hop.
			return a.reply(p, c, &a.errs[FailDown])
		}
		if a.res.enabled() && a.res.cfg.Backlog > 0 && a.Workers.Queued()+a.rejecting >= a.res.cfg.Backlog {
			// Accept-queue overflow: the kernel drops the connection before
			// the server reads it, so the refusal costs no CPU. Without this
			// bound every refusal is a degraded response sharing Apache's CPU,
			// and a flood of them starves the requests being served (receive
			// livelock).
			a.res.stats.Shed++
			a.backlogDrops++
			return a.reply(p, c, &a.errs[FailShed])
		}
		if kind, ok := a.admit(p, it); !ok {
			return a.degrade(p, c, kind)
		}
		t0 := p.Now()
		if !a.Workers.AcquireOrSuspend(p, a.res.acquireTimeout()) {
			c.Stage = queued
			return false, nil
		}
		return a.grant(p, it, c, t0)
	case queued:
		ok, wait := a.Workers.Resolve(p)
		t0 := p.Now() - wait
		if ok {
			return a.grant(p, it, c, t0)
		}
		a.res.stats.AcquireTimeouts++
		a.res.stats.Failures++
		addSpan(p, a.Node.Name(), "worker-timeout", t0)
		return a.reply(p, c, &a.errs[FailTimeout])
	case degrading:
		a.rejecting--
		return a.reply(p, c, &a.errs[c.Reply-1])
	case serving:
		done, err := a.serve(p, it, a.recs[c.Rec-1])
		if !done {
			return false, nil
		}
		return a.reply(p, c, err)
	case replying:
		return a.replied(c)
	}
	panic(fmt.Sprintf("tier: %s: request at unknown stage %d", a.Node.Name(), c.Stage))
}

// The stages of a request at Apache's front door, in rubbos.Call.Stage.
// While degrading or replying, Call.Reply holds the response: 0 for the
// page or an error from behind the front door, else the kind of the front
// door's own error plus one.
const (
	sending   uint8 = iota // not yet sent: the hop in is next
	arriving               // crossing to the server
	degrading              // refused by admit, its degraded response on the CPU
	queued                 // waiting suspended for a worker
	serving                // in service, holding a worker and a record
	replying               // the page or a refusal crossing back
)

// admit applies the front-door refusals that answer with a degraded
// response, which may cost CPU: a deadline the residence estimate cannot
// meet, a full queue, and adaptive admission. It books a refusal and
// returns its kind, or reports the request admitted.
func (a *Apache) admit(p *des.Proc, it *rubbos.Interaction) (FailKind, bool) {
	if overDeadline(p, &a.est) {
		// Deadline propagation: the remaining budget cannot cover this
		// server's recent time-to-response, so fail fast before queueing.
		a.dlSheds++
		return FailDeadline, false
	}
	if a.res.enabled() && a.res.cfg.MaxQueue > 0 && a.Workers.Queued() >= a.res.cfg.MaxQueue {
		// Admission control: reject before tying up a worker; the
		// degraded response costs a sliver of CPU (error page).
		a.res.stats.Shed++
		return FailShed, false
	}
	if a.adm != nil && a.adm.drop(it.Write) {
		// Adaptive admission control: the standing worker wait is over
		// target, shed at the front door (browse before writes).
		a.res.stats.Shed++
		a.res.stats.AdmissionSheds++
		return FailShed, false
	}
	return 0, true
}

// degrade emits the degraded response to a refusal of the given kind
// from admit without holding a worker — on the CPU, under the resilience
// layer; the request counts toward the accept backlog while it does —
// and replies with it.
func (a *Apache) degrade(p *des.Proc, c *rubbos.Call, kind FailKind) (bool, error) {
	c.Reply = uint8(kind) + 1
	if !a.res.enabled() {
		return a.reply(p, c, &a.errs[kind])
	}
	a.rejecting++
	c.Stage = degrading
	if !a.use(p, time.Duration(degradedMS*float64(time.Millisecond))) {
		return false, nil
	}
	a.rejecting--
	return a.reply(p, c, &a.errs[kind])
}

// reply sends the response — the page when err is nil — back across the
// link to the client and ends the request. It crosses as a rest
// (netsim.Link.Cross), which ends the step; the wake at the hop's end
// delivers the response: the front door's own error, rebuilt from
// c.Reply, or the outcome of the request's service, which its in-service
// record holds.
func (a *Apache) reply(p *des.Proc, c *rubbos.Call, err error) (bool, error) {
	c.Reply = 0
	if e, ok := err.(*Error); ok && e == &a.errs[e.Kind] {
		c.Reply = uint8(e.Kind) + 1
	}
	c.Stage = replying
	if !a.link.Cross(p) {
		return false, nil
	}
	return a.replied(c)
}

// replied ends the request whose response has crossed back to the client,
// putting back its in-service record, if it has one.
func (a *Apache) replied(c *rubbos.Call) (bool, error) {
	var err error
	if h := c.Rec; h > 0 {
		err = a.recs[h-1].web.err
		a.spare = append(a.spare, h)
	} else if c.Reply > 0 {
		err = &a.errs[c.Reply-1]
	}
	*c = rubbos.Call{}
	return true, err
}

// grant starts the service of a request granted a worker, which it queued
// for since admitted: it takes an in-service record, reusing one a
// finished request put back.
func (a *Apache) grant(p *des.Proc, it *rubbos.Interaction, c *rubbos.Call, admitted time.Duration) (bool, error) {
	var h uint32
	if n := len(a.spare) - 1; n >= 0 {
		h = a.spare[n]
		a.spare = a.spare[:n]
	} else {
		a.recs = append(a.recs, new(inService))
		h = uint32(len(a.recs))
	}
	s := a.recs[h-1]
	*s = inService{}
	s.web.entry = admitted
	c.Stage, c.Rec = serving, h
	return a.Do(p, it, c)
}

// The stages of a request in service at Apache, in inService.web.stage.
const (
	webGranted uint8 = iota // granted a worker: the parse next
	webParse                // on the CPU for the first half
	webProxy                // the proxy call in progress
	webRender               // on the CPU for the second half
	webClose                // resting in the lingering close
	webDone                 // done, with web.err: the worker is released next
)

// serve is the request's service on its worker, as a stage function (see
// Do). Do replies with the outcome.
func (a *Apache) serve(p *des.Proc, it *rubbos.Interaction, s *inService) (bool, error) {
	l := &s.web
	for {
		switch l.stage {
		case webGranted:
			addSpan(p, a.Node.Name(), "worker-wait", l.entry)
			if a.adm != nil {
				a.adm.observeWait(p.Now() - l.entry)
			}
			// Residence is measured while holding a worker (see
			// Tomcat.serve).
			l.start = p.Now()
			// Request parsing and response/static-content work, half
			// before the proxy call and half after. Static follow-ups are
			// cache hits served by the same worker and are folded into the
			// Apache CPU demand.
			s.t0 = p.Now()
			l.stage = webParse
			if !a.use(p, sampleMS(a.r, it.ApacheMS/2, it.CV)) {
				return false, nil
			}
		case webParse:
			addSpan(p, a.Node.Name(), "cpu", s.t0)
			a.connecting++
			l.conn = p.Now()
			l.stage = webProxy
		case webProxy:
			done, err := a.proxy(p, it, s)
			if !done {
				return false, nil
			}
			l.connDur = p.Now() - l.conn
			a.connecting--
			if l.err = err; err != nil {
				// Error response: close fast (no static follow-ups, no
				// lingering close worth modelling for an aborted
				// connection).
				a.res.stats.Failures++
				l.stage = webDone
				continue
			}
			s.t0 = p.Now()
			l.stage = webRender
			if !a.use(p, sampleMS(a.r, it.ApacheMS/2, it.CV)) {
				return false, nil
			}
		case webRender:
			addSpan(p, a.Node.Name(), "cpu", s.t0)
			// The client has the full response at this point; the
			// lingering close below holds the worker but adds nothing to
			// the user-visible latency, so the deadline estimator observes
			// time-to-response-delivered here.
			a.est.observe(p.Now() - l.entry)
			// Lingering close: the worker stays busy until the client FIN
			// arrives.
			l.stage = webDone
			if a.Fin != nil {
				a.Fin.SetLoad(a.finLoad)
				s.t0 = p.Now()
				a.finWaiting++
				l.stage = webClose
				p.Rest(a.Fin.Sample())
				return false, nil
			}
		case webClose:
			a.finWaiting--
			addSpan(p, a.Node.Name(), "fin-wait", s.t0)
			l.stage = webDone
		case webDone:
			busy := p.Now() - l.start
			a.Workers.Release()
			now := p.Now()
			a.log.Observe(now, busy)
			if a.processed != nil && l.err == nil {
				a.processed.Observe(now, 1)
				a.ptTotal.Observe(now, float64(busy)/float64(time.Millisecond))
				a.ptConnecting.Observe(now, float64(l.connDur)/float64(time.Millisecond))
			}
			return true, l.err
		}
	}
}

// The stages of the proxy call, in inService.web.loop.
const (
	proxySend    uint8 = iota // the next attempt next
	proxyBackoff              // resting through a retry's backoff
	proxyPick                 // the attempt's application server is picked next
	proxyCall                 // the attempt at web.peer
)

// proxy forwards the dynamic request to the application tier, as a stage
// function (see Do): one attempt on the fault-free path, or up to
// 1+Retries attempts with breaker checks, backoff, and round-robin
// failover when resilience is enabled.
func (a *Apache) proxy(p *des.Proc, it *rubbos.Interaction, s *inService) (bool, error) {
	l := &s.web
	for {
		switch l.loop {
		case proxySend:
			if l.attempt == a.res.attempts() {
				return true, l.err
			}
			l.loop = proxyPick
			if l.attempt > 0 {
				a.res.stats.Retries++
				if d := a.res.cfg.backoff(a.res.r, l.attempt-1); d > 0 {
					s.t0 = p.Now()
					l.loop = proxyBackoff
					p.Rest(d)
					return false, nil
				}
			}
		case proxyBackoff:
			addSpan(p, a.Node.Name(), "backoff", s.t0)
			l.loop = proxyPick
		case proxyPick:
			l.attempt++
			l.peer = a.rr % len(a.tomcats)
			a.rr++
			if br := a.res.breaker(l.peer); br != nil && !br.Allow() {
				l.err = &a.tomcats[l.peer].errs[FailOpen]
				l.loop = proxySend
				continue
			}
			l.call = p.Now()
			s.app = appLeg{}
			l.loop = proxyCall
		case proxyCall:
			tc := a.tomcats[l.peer]
			done, err := tc.serve(p, it, s)
			if !done {
				return false, nil
			}
			err = a.res.settle(l.peer, p.Now()-l.call, err, &tc.errs[FailTimeout])
			if err == nil || isDeadline(err) {
				// Done, or out of budget: retrying cannot possibly finish
				// in time.
				return true, err
			}
			l.err = err
			l.loop = proxySend
		}
	}
}

// isDeadline reports whether err is a deadline fail-fast.
func isDeadline(err error) bool {
	k, ok := ErrKind(err)
	return ok && k == FailDeadline
}

// SetFinLoad records the per-client-node user load (see
// rubbos.Workload.UsersPerNode).
func (a *Apache) SetFinLoad(usersPerNode float64) { a.finLoad = usersPerNode }

// ResetStats starts a new measurement window.
func (a *Apache) ResetStats() {
	a.Workers.ResetStats()
	a.resetStats()
}
