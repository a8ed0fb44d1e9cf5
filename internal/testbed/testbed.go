package testbed

import (
	"fmt"
	"math"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/hw"
	"github.com/softres/ntier/internal/netsim"
	"github.com/softres/ntier/internal/resource"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/tier"
)

// LinkLatency is the tier-to-tier hop of the paper's LAN.
const LinkLatency = 700 * time.Microsecond

// Options configures a topology build. Zero values take the paper defaults.
type Options struct {
	Hardware Hardware
	Soft     SoftAlloc
	Seed     uint64

	// Env, when set, builds the topology into an existing simulation
	// environment so several stacks can share one DES run (the fleet's
	// consolidation scenarios). The environment's owner shuts it down;
	// Close on a testbed that borrowed its Env leaves it running.
	Env *des.Env

	// Namespace, when non-empty, prefixes every node, pool, RNG-stream,
	// and fault-target identity with "<Namespace>/" so obs series and
	// audits stay unambiguous when several stacks coexist. Empty reproduces the paper's bare names exactly.
	Namespace string

	// Place, when set, supplies the hardware node hosting each
	// (namespaced) server — the fleet maps several servers onto one
	// physical node via hw.Node.Alias. Nil keeps the paper's dedicated
	// PC3000 node per server.
	Place func(name string) *hw.Node

	// Tune hooks adjust the per-server model configurations after the
	// defaults are applied (calibration and ablation knobs).
	TuneTomcat func(*tier.TomcatConfig)
	TuneCJDBC  func(*tier.CJDBCConfig)

	// Resilience, when set, attaches timeouts, retries, circuit breakers,
	// and load shedding to every Apache and Tomcat (see tier.
	// ResilienceConfig). Nil keeps the original fault-free fast path and
	// reproduces the seed's numbers exactly.
	Resilience *tier.ResilienceConfig

	// DisableGC gives every JVM an effectively infinite heap (ablation).
	DisableGC bool
	// DisableFinWait turns off Apache's lingering close (ablation).
	DisableFinWait bool
}

// Testbed is a fully wired n-tier deployment.
type Testbed struct {
	Env   *des.Env
	Opts  Options
	Table *rubbos.Table

	Apaches []*tier.Apache
	Tomcats []*tier.Tomcat
	CJDBCs  []*tier.CJDBC
	MySQLs  []*tier.MySQL

	// LinkSpike injects extra latency into every tier-to-tier hop (the
	// fault injector's "link" target); zero extra means no change.
	LinkSpike *netsim.Spike

	rr       int              // front-end round-robin cursor
	ownsEnv  bool             // Close shuts the Env down only when Build created it
	workload *rubbos.Workload // the last workload started on it, which Audit checks too
}

// qualify prefixes base with the build namespace (identity when empty).
func (tb *Testbed) qualify(base string) string {
	if tb.Opts.Namespace == "" {
		return base
	}
	return tb.Opts.Namespace + "/" + base
}

// Build constructs the topology described by opts.
func Build(opts Options) (*Testbed, error) {
	if err := opts.Hardware.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Soft.Validate(); err != nil {
		return nil, err
	}
	if opts.Hardware.Web > math.MaxUint16+1 {
		return nil, fmt.Errorf("testbed: %d web servers, at most %d", opts.Hardware.Web, math.MaxUint16+1)
	}
	env := opts.Env
	if env == nil {
		env = des.NewEnv()
	}
	spike := &netsim.Spike{}
	link := netsim.Link{Latency: LinkLatency, Spike: spike}
	tb := &Testbed{Env: env, Opts: opts, Table: rubbos.NewTable(),
		LinkSpike: spike, ownsEnv: opts.Env == nil}

	// newNode names and places one server's node: namespaced, then either
	// dedicated hardware (the paper's model) or whatever the placement
	// hook returns (a shared physical node in fleet scenarios).
	newNode := func(base string) *hw.Node {
		name := tb.qualify(base)
		if opts.Place != nil {
			return opts.Place(name)
		}
		return hw.NewNode(env, name, hw.PC3000())
	}

	// Database tier. Every database node carries a disk for synchronous
	// write commits (idle under the browsing mix).
	for i := 0; i < opts.Hardware.DB; i++ {
		node := newNode(fmt.Sprintf("mysql%d", i+1))
		node.AttachDisk()
		r := rng.NewStream(opts.Seed, node.Name())
		tb.MySQLs = append(tb.MySQLs, tier.NewMySQL(env, node, link, r))
	}

	// Clustering middleware tier (one node in all paper configurations,
	// but the builder supports more).
	for i := 0; i < opts.Hardware.Mid; i++ {
		cfg := tier.DefaultCJDBCConfig()
		if opts.TuneCJDBC != nil {
			opts.TuneCJDBC(&cfg)
		}
		if opts.DisableGC {
			cfg.JVM.HeapMiB = 1e12
		}
		node := newNode(fmt.Sprintf("cjdbc%d", i+1))
		r := rng.NewStream(opts.Seed, node.Name())
		tb.CJDBCs = append(tb.CJDBCs, tier.NewCJDBC(env, node, cfg, tb.MySQLs, link, r))
	}

	// Application tier. With several middleware nodes, Tomcats spread
	// across them round-robin at build time.
	for i := 0; i < opts.Hardware.App; i++ {
		cfg := tier.DefaultTomcatConfig(opts.Soft.AppThreads, opts.Soft.AppConns)
		if opts.TuneTomcat != nil {
			opts.TuneTomcat(&cfg)
		}
		if opts.DisableGC {
			cfg.JVM.HeapMiB = 1e12
		}
		node := newNode(fmt.Sprintf("tomcat%d", i+1))
		r := rng.NewStream(opts.Seed, node.Name())
		backend := tb.CJDBCs[i%len(tb.CJDBCs)]
		t := tier.NewTomcat(env, node, cfg, backend, link, r)
		if opts.Resilience != nil {
			// The jitter stream is separate from the node's demand stream
			// so enabling resilience never shifts the fault-free draws.
			t.SetResilience(opts.Resilience, rng.NewStream(opts.Seed, node.Name()+"/resilience"))
		}
		tb.Tomcats = append(tb.Tomcats, t)
	}

	// Each middleware node holds one resident thread per upstream DB
	// connection, busy or idle.
	perMid := make([]int, opts.Hardware.Mid)
	for i := 0; i < opts.Hardware.App; i++ {
		perMid[i%opts.Hardware.Mid] += opts.Soft.AppConns
	}
	for i, c := range tb.CJDBCs {
		c.SetUpstreamConns(perMid[i])
	}

	// Web tier.
	for i := 0; i < opts.Hardware.Web; i++ {
		cfg := tier.DefaultApacheConfig(opts.Soft.WebThreads)
		if opts.DisableFinWait {
			cfg.FinWait = false
		}
		node := newNode(fmt.Sprintf("apache%d", i+1))
		r := rng.NewStream(opts.Seed, node.Name())
		a := tier.NewApache(env, node, cfg, tb.Tomcats, link, r)
		if opts.Resilience != nil {
			a.SetResilience(opts.Resilience, rng.NewStream(opts.Seed, node.Name()+"/resilience"))
		}
		tb.Apaches = append(tb.Apaches, a)
	}
	return tb, nil
}

// ApplySoft resizes every soft pool of the running deployment to the given
// allocation — the live-reallocation primitive behind the elastic
// controller (the dynamic counterpart of the paper's offline Algorithm 1).
// Growth admits queued waiters immediately; shrinking lets excess holders
// drain without revoking units or stranding waiters (resource.Pool.Resize).
// The C-JDBC resident thread count tracks the new upstream connection
// totals exactly as Build wires them, so the middleware JVM live set — the
// paper's §III-B over-allocation cost — follows connection-pool resizes.
// The configured Opts.Soft is left untouched: it remains the build-time
// (initial) allocation.
func (tb *Testbed) ApplySoft(soft SoftAlloc) error {
	if err := soft.Validate(); err != nil {
		return err
	}
	for _, a := range tb.Apaches {
		a.Workers.Resize(soft.WebThreads)
	}
	for _, t := range tb.Tomcats {
		t.Threads.Resize(soft.AppThreads)
		t.Conns.Resize(soft.AppConns)
	}
	perMid := make([]int, len(tb.CJDBCs))
	for i := 0; i < len(tb.Tomcats); i++ {
		perMid[i%len(tb.CJDBCs)] += soft.AppConns
	}
	for i, c := range tb.CJDBCs {
		c.SetUpstreamConns(perMid[i])
	}
	return nil
}

// SoftUnits returns the total soft-resource units currently allocated: the
// sum of every pool's capacity across the topology (Apache workers, Tomcat
// threads, Tomcat DB connections). This is the elastic budget's currency
// and matches SoftAlloc.Units for a uniform allocation.
func (tb *Testbed) SoftUnits() int {
	units := 0
	for _, a := range tb.Apaches {
		units += a.Workers.Capacity()
	}
	for _, t := range tb.Tomcats {
		units += t.Threads.Capacity() + t.Conns.Capacity()
	}
	return units
}

// Do implements rubbos.Target, balancing requests across web servers
// round-robin as they are sent. A request goes on at the server it was sent
// to (c.Server) on every later call, without taking another turn.
func (tb *Testbed) Do(p *des.Proc, it *rubbos.Interaction, c *rubbos.Call) (bool, error) {
	if c.Stage == 0 {
		c.Server = uint16(tb.rr % len(tb.Apaches))
		tb.rr++
	}
	return tb.Apaches[c.Server].Do(p, it, c)
}

// FaultTargets exposes the deployment's fault-injection surface: every
// server by node name (crash), every node CPU (brownout), the soft-resource
// pools by path (connection leaks), and the shared tier-to-tier link under
// the name "link" (latency spikes).
func (tb *Testbed) FaultTargets() fault.Targets {
	ft := fault.Targets{
		Nodes:  map[string]fault.Downable{},
		CPUs:   map[string]*resource.CPU{},
		Pools:  map[string]*resource.Pool{},
		Spikes: map[string]*netsim.Spike{tb.qualify("link"): tb.LinkSpike},
	}
	for _, n := range tb.Nodes() {
		ft.CPUs[n.Name()] = n.CPU()
	}
	for _, a := range tb.Apaches {
		ft.Nodes[a.Node.Name()] = a
		ft.Pools[a.Workers.Name()] = a.Workers
	}
	for _, t := range tb.Tomcats {
		ft.Nodes[t.Node.Name()] = t
		ft.Pools[t.Threads.Name()] = t.Threads
		ft.Pools[t.Conns.Name()] = t.Conns
	}
	for _, c := range tb.CJDBCs {
		ft.Nodes[c.Node.Name()] = c
	}
	for _, m := range tb.MySQLs {
		ft.Nodes[m.Node.Name()] = m
	}
	return ft
}

// StartWorkload launches a closed-loop RUBBoS workload of `users` emulated
// users against the testbed and informs the FIN model of the per-client-node
// load.
func (tb *Testbed) StartWorkload(cfg rubbos.ClientConfig, collect rubbos.Collector) (*rubbos.Workload, error) {
	w, err := rubbos.Start(tb.Env, cfg, tb.Table, tb, collect)
	if err != nil {
		return nil, err
	}
	tb.workload = w
	for _, a := range tb.Apaches {
		a.SetFinLoad(w.UsersPerNode())
	}
	return w, nil
}

// finLoadInterval is the sampling period of the open-workload FIN-load
// follower, and finLoadAlpha its EWMA weight.
const (
	finLoadInterval = time.Second
	finLoadAlpha    = 0.3
)

// StartOpenWorkload launches an open-system arrival-driven workload against
// the testbed and keeps the FIN model's equivalent per-client-node load in
// step with it (see rubbos.StartOpen).
//
// Unlike the closed-loop case, where the emulated-user population is a
// constant of the run, the open stream's served population varies with the
// admission decisions upstream: shed requests answer with a short degraded
// response and close immediately, so only served pages occupy client-side
// sockets through the lingering close. The follower process below therefore
// tracks the *completion* rate (EWMA over one-second windows) and re-derives
// the equivalent user population via Little's law each tick — at overload
// the FIN tail is tied to admitted, not offered, load, so load shedding
// genuinely frees Apache workers instead of leaving them parked for a
// notional client population that was never served.
func (tb *Testbed) StartOpenWorkload(cfg rubbos.OpenConfig, collect rubbos.Collector) (*rubbos.Workload, error) {
	w, err := rubbos.StartOpen(tb.Env, cfg, tb.Table, tb, collect)
	if err != nil {
		return nil, err
	}
	tb.workload = w
	for _, a := range tb.Apaches {
		a.SetFinLoad(w.UsersPerNode())
	}
	nodes := float64(rubbos.ClientNodes)
	var prev uint64
	var ewma float64
	started := false
	// The follower never blocks: every tick is a step, with no coroutine.
	tb.Env.GoStep("fin-load", func(p *des.Proc) {
		if started {
			if w.Stopped() {
				return // let a draining trial reach zero live processes
			}
			done := w.Completed()
			rate := float64(done-prev) / finLoadInterval.Seconds()
			prev = done
			if ewma == 0 {
				ewma = rate
			} else {
				ewma += finLoadAlpha * (rate - ewma)
			}
			users := rubbos.OpenEquivUsers(ewma) / nodes
			for _, a := range tb.Apaches {
				a.SetFinLoad(users)
			}
		}
		started = true
		p.Rest(finLoadInterval)
	})
	return w, nil
}

// Nodes returns every hardware node in tier order.
func (tb *Testbed) Nodes() []*hw.Node {
	var out []*hw.Node
	for _, a := range tb.Apaches {
		out = append(out, a.Node)
	}
	for _, t := range tb.Tomcats {
		out = append(out, t.Node)
	}
	for _, c := range tb.CJDBCs {
		out = append(out, c.Node)
	}
	for _, m := range tb.MySQLs {
		out = append(out, m.Node)
	}
	return out
}

// ResetStats starts a fresh measurement window on every server.
func (tb *Testbed) ResetStats() {
	for _, a := range tb.Apaches {
		a.ResetStats()
	}
	for _, t := range tb.Tomcats {
		t.ResetStats()
	}
	for _, c := range tb.CJDBCs {
		c.ResetStats()
	}
	for _, m := range tb.MySQLs {
		m.ResetStats()
	}
}

// Close unwinds all simulation processes; the testbed is unusable after.
// A testbed built into a borrowed Env (Options.Env) leaves the environment
// running — its owner (the fleet) shuts it down once for every tenant.
func (tb *Testbed) Close() {
	if tb.ownsEnv {
		tb.Env.Shutdown()
	}
}

// Audit runs every component's invariant audit — the DES scheduler, each
// node's hardware, each server's bookkeeping, and the request
// conservation of the workload started on the testbed — and returns all
// violations found (nil when clean). With quiescent=true the deployment
// must additionally be fully recovered and drained: pools empty and
// leak-free, CPUs idle at full speed, crash flags cleared, no worker
// parked, the workload stopped with nothing in flight. Pure read; every
// experiment trial calls it at its horizon.
func (tb *Testbed) Audit(quiescent bool) []error {
	var errs []error
	add := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	add(tb.Env.Audit())
	for _, n := range tb.Nodes() {
		add(n.Audit(quiescent))
	}
	for _, a := range tb.Apaches {
		add(a.Audit(quiescent))
	}
	for _, t := range tb.Tomcats {
		add(t.Audit(quiescent))
	}
	for _, c := range tb.CJDBCs {
		add(c.Audit(quiescent))
	}
	for _, m := range tb.MySQLs {
		add(m.Audit(quiescent))
	}
	switch w := tb.workload; {
	case w == nil:
	case quiescent:
		add(w.AuditQuiescent())
	default:
		add(w.Audit())
	}
	return errs
}
