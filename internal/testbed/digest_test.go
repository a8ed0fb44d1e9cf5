package testbed

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"hash"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/resource"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/tier"
	"github.com/softres/ntier/internal/trace"
)

var updatePins = flag.Bool("update-pins", false, "log fresh digest pins instead of checking them")

// digestTrial is one pinned trial: a topology, a workload, and a horizon.
type digestTrial struct {
	name string
	opts Options
	// users > 0 drives a closed workload, else an open Poisson stream of
	// rate req/s with deadline.
	users    int
	rate     float64
	deadline time.Duration
	ramp     time.Duration
	horizon  time.Duration
	// patience, when set, makes closed users abandon slow responses.
	patience time.Duration
	tracer   *trace.Tracer
	// setup, when set, runs on the built testbed before the workload
	// starts (to schedule fault windows).
	setup func(*Testbed)
	want  string
}

// TestDigestPins runs one short trial of each regime whose code paths an
// engine or model rewrite is most likely to disturb, hashes its outputs at
// full precision, and checks the hash against a pin. The hash covers every
// request record (interaction, issue time, response time, outcome), the
// event count, the conservation buckets, every pool's, CPU's and server's
// statistics as float64 bits, and the span totals of the traced run. A
// rewrite that keeps the simulation byte-identical keeps every pin.
//
// After an intentional behaviour change, regenerate with
//
//	go test ./internal/testbed -run DigestPins -update-pins -v
//
// and name every changed pin in CHANGES.md.
func TestDigestPins(t *testing.T) {
	for _, tc := range digestTrials() {
		t.Run(tc.name, func(t *testing.T) { checkPin(t, tc) })
	}
}

// A trial on the engine storage an earlier one left keeps its pin: the
// small traced trials run on the Procs, queue memory and session records
// of closed-saturated and of a trial stopped mid-request, with sampled
// traces in flight and abandoned sessions, none of whose state may leak
// through. That trial, run again warm, keeps its cold digest too.
func TestDigestPinsOnWarmStorage(t *testing.T) {
	des.DropStorage()
	defer des.DropStorage()
	trials := map[string]digestTrial{}
	for _, tc := range digestTrials() {
		trials[tc.name] = tc
	}
	// More users than closed-traced, every request traced, slow pages
	// abandoned, and a horizon that stops thousands of requests mid-way.
	dirty := digestTrial{
		name: "closed-abandoning", opts: Options{Hardware: Hardware{Web: 1, App: 1, Mid: 1, DB: 1}, Soft: SoftAlloc{WebThreads: 40, AppThreads: 8, AppConns: 4}, Seed: 8},
		users: 4000, ramp: time.Second, horizon: 3 * time.Second, patience: 200 * time.Millisecond,
	}
	runDirty := func() (string, string) {
		dirty.tracer = trace.NewTracer(1, 1<<20)
		return runDigest(t, dirty)
	}
	cold, summary := runDirty()
	if strings.Contains(summary, "inflight=0 ") || strings.Contains(summary, "abandoned=0") {
		t.Fatalf("%s: want requests in flight at the horizon and abandoned sessions", summary)
	}
	t.Run("closed-saturated", func(t *testing.T) { checkPin(t, trials["closed-saturated"]) })
	if warm, _ := runDirty(); warm != cold {
		t.Errorf("%s on warm storage: digest %s, cold %s", dirty.name, warm, cold)
	}
	for _, name := range []string{"closed-traced", "open-traced-down"} {
		t.Run(name, func(t *testing.T) { checkPin(t, trials[name]) })
	}
}

// checkPin runs tc and checks its digest against its pin, or logs the
// digest with -update-pins.
func checkPin(t *testing.T, tc digestTrial) {
	t.Helper()
	got, summary := runDigest(t, tc)
	if *updatePins {
		t.Logf("pin %s: %q (%s)", tc.name, got, summary)
		return
	}
	if got != tc.want {
		t.Errorf("digest %s, pinned %s (%s)", got, tc.want, summary)
	}
}

// digestTrials are the pinned trials.
func digestTrials() []digestTrial {
	hw1212 := Hardware{Web: 1, App: 2, Mid: 1, DB: 2}
	soft := SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 6}
	protect := &tier.ResilienceConfig{Admission: true, MaxQueue: 50}
	timeouts := &tier.ResilienceConfig{
		AcquireTimeout: 300 * time.Millisecond,
		Retries:        1,
		BackoffBase:    10 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		Breaker:        true,
	}
	backlog := &tier.ResilienceConfig{Admission: true, MaxQueue: 50, Backlog: 128}
	return []digestTrial{
		{
			// Past the knee at scale: thousands of requests queue for
			// the 400 Apache workers.
			name: "closed-saturated", opts: Options{Hardware: hw1212, Soft: soft, Seed: 1},
			users: 20000, ramp: 2 * time.Second, horizon: 6 * time.Second,
			want: "b3af7186f697f88c2de2321a",
		},
		{
			name: "open-protected-2x", opts: Options{Hardware: hw1212, Soft: soft, Seed: 2, Resilience: protect},
			rate: 1400, deadline: 2 * time.Second, ramp: 2 * time.Second, horizon: 6 * time.Second,
			want: "f0afad15776686bf1eb9871a",
		},
		{
			// 30 workers against 8000 users: front-door waits run past
			// the 300 ms AcquireTimeout.
			name:  "resilience-acquire-timeout",
			opts:  Options{Hardware: hw1212, Soft: SoftAlloc{WebThreads: 30, AppThreads: 15, AppConns: 6}, Seed: 3, Resilience: timeouts},
			users: 8000, ramp: 2 * time.Second, horizon: 6 * time.Second,
			want: "175b8c7ee1d8e6dbf11e9166",
		},
		{
			name: "closed-traced", opts: Options{Hardware: Hardware{Web: 1, App: 1, Mid: 1, DB: 1}, Soft: SoftAlloc{WebThreads: 40, AppThreads: 8, AppConns: 4}, Seed: 4},
			users: 3000, ramp: 2 * time.Second, horizon: 6 * time.Second,
			tracer: trace.NewTracer(7, 1<<20),
			want:   "43f3990c5542f6576202d9be",
		},
		{
			// 10⁶ open-equivalent users against the accept backlog:
			// nearly every arrival is dropped there, the rest are shed
			// with a degraded response or served.
			name: "open-flood-backlog", opts: Options{Hardware: hw1212, Soft: soft, Seed: 5, Resilience: backlog},
			rate: 1e6 / 7, deadline: 2 * time.Second, ramp: 500 * time.Millisecond, horizon: 1500 * time.Millisecond,
			want: "0a6c4ea6b7cd6c128cacdea9",
		},
		{
			// Apache refuses every request for one second; every
			// request is traced, refused ones included.
			name: "open-traced-down", opts: Options{Hardware: Hardware{Web: 1, App: 1, Mid: 1, DB: 1}, Soft: SoftAlloc{WebThreads: 40, AppThreads: 8, AppConns: 4}, Seed: 6},
			rate: 300, ramp: 2 * time.Second, horizon: 6 * time.Second,
			tracer: trace.NewTracer(1, 1<<20),
			setup: func(tb *Testbed) {
				tb.Env.At(3*time.Second, func() { tb.Apaches[0].SetDown(true) })
				tb.Env.At(4*time.Second, func() { tb.Apaches[0].SetDown(false) })
			},
			want: "5703ac3ccb74151d8c6a25d2",
		},
		{
			// Each backend tier loses its first server for half a second
			// under a deadline-bound overload, so every backend's down
			// and deadline refusals answer traced requests.
			name: "open-backend-down", opts: Options{Hardware: hw1212, Soft: soft, Seed: 7},
			rate: 900, deadline: 300 * time.Millisecond, ramp: 2 * time.Second, horizon: 6 * time.Second,
			tracer: trace.NewTracer(1, 1<<20),
			setup: func(tb *Testbed) {
				down := func(at time.Duration, s interface{ SetDown(bool) }) {
					tb.Env.At(at, func() { s.SetDown(true) })
					tb.Env.At(at+500*time.Millisecond, func() { s.SetDown(false) })
				}
				down(2500*time.Millisecond, tb.Tomcats[0])
				down(3500*time.Millisecond, tb.CJDBCs[0])
				down(4500*time.Millisecond, tb.MySQLs[0])
			},
			want: "dee1bf5c394f2c491bc927f7",
		},
	}
}

// runDigest runs tc and returns its output hash plus a readable summary of
// the conservation buckets for failure messages.
func runDigest(t *testing.T, tc digestTrial) (string, string) {
	t.Helper()
	tb, err := Build(tc.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if tc.setup != nil {
		tc.setup(tb)
	}
	h := sha256.New()
	collect := func(it *rubbos.Interaction, issued, rt time.Duration, err error) {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		fmt.Fprintf(h, "r %s %d %d %s\n", it.Name, issued, rt, msg)
	}
	var w *rubbos.Workload
	if tc.users > 0 {
		cfg := rubbos.DefaultClientConfig(tc.users)
		cfg.RampUp = tc.ramp
		cfg.Seed = tc.opts.Seed
		cfg.Tracer = tc.tracer
		cfg.Patience = tc.patience
		w, err = tb.StartWorkload(cfg, collect)
	} else {
		w, err = tb.StartOpenWorkload(rubbos.OpenConfig{
			Arrivals: trace.Poisson(tc.rate),
			Matrix:   rubbos.BrowseOnlyMix(),
			Seed:     tc.opts.Seed,
			Deadline: tc.deadline,
			Tracer:   tc.tracer,
		}, collect)
	}
	if err != nil {
		t.Fatal(err)
	}
	events := tb.Env.Run(tc.ramp)
	tb.ResetStats()
	events += tb.Env.Run(tc.horizon)
	if errs := tb.Audit(false); len(errs) > 0 {
		t.Fatalf("audit: %v", errors.Join(errs...))
	}

	summary := fmt.Sprintf("events=%d issued=%d completed=%d failed=%d shed=%d inflight=%d late=%d",
		events, w.Issued(), w.Completed(), w.Failed(), w.Shed(), w.InFlight(), w.Late())
	fmt.Fprintf(h, "%s live=%d pending=%d now=%d\n", summary, tb.Env.Live(), tb.Env.Pending(), tb.Env.Now())
	for _, n := range tb.Nodes() {
		st := n.CPU().Stats()
		fmt.Fprintf(h, "cpu %s %x %x %d %x\n", st.Name, bits(st.Utilization), bits(st.Stalled), st.JobsDone, bits(n.Utilization()))
	}
	pool := func(pl *resource.Pool) {
		s := pl.Stats()
		fmt.Fprintf(h, "pool %s %d %x %x %x %d %d %d %d %d %v\n", s.Name, s.Capacity, bits(s.Utilization),
			bits(s.Full), bits(s.Saturated), s.Grants, s.Waited, s.Timeouts, s.MeanWait, s.MaxQueue, s.OccTime)
	}
	server := func(name string, log *tier.ServiceLog, res *tier.ResilienceStats) {
		fmt.Fprintf(h, "server %s %d %d %x", name, log.Count(), log.MeanRT(), bits(log.Throughput(tb.Env.Now())))
		if res != nil {
			fmt.Fprintf(h, " %+v", *res)
		}
		fmt.Fprintln(h)
	}
	for _, a := range tb.Apaches {
		pool(a.Workers)
		server(a.Node.Name(), a.Log(), a.Resilience())
		fmt.Fprintf(h, "apache %d %d %d %x\n", a.Sheds(), a.Connecting(), a.FinWaiting(), bits(a.AdmissionLevel()))
	}
	for _, tc := range tb.Tomcats {
		pool(tc.Threads)
		pool(tc.Conns)
		server(tc.Node.Name(), tc.Log(), tc.Resilience())
	}
	for _, c := range tb.CJDBCs {
		server(c.Node.Name(), c.Log(), nil)
	}
	for _, m := range tb.MySQLs {
		server(m.Node.Name(), m.Log(), nil)
	}
	for _, a := range tb.Apaches {
		if res := a.Resilience(); res != nil {
			summary += fmt.Sprintf(" %s-acquire-timeouts=%d", a.Node.Name(), res.AcquireTimeouts)
		}
	}
	if tc.patience > 0 {
		summary += fmt.Sprintf(" abandoned=%d", w.Abandoned())
	}
	if tc.tracer != nil {
		spans := spanTotals(h, tc.tracer.Traces())
		if spans == 0 {
			t.Fatal("traced trial recorded no spans")
		}
		summary += fmt.Sprintf(" spans=%d", spans)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12]), summary
}

// spanTotals hashes the finished traces' span totals per (server, phase),
// in key order, and returns the number of spans.
func spanTotals(h hash.Hash, traces []*trace.Trace) int {
	type total struct {
		n   int
		sum time.Duration
	}
	totals := map[string]*total{}
	spans := 0
	for _, tr := range traces {
		fmt.Fprintf(h, "trace %d %s %d %d\n", tr.ID, tr.Interaction, tr.Issued, tr.Done)
		for _, s := range tr.Spans {
			k := s.Server + "/" + s.Phase
			if totals[k] == nil {
				totals[k] = &total{}
			}
			totals[k].n++
			totals[k].sum += s.Dur()
			spans++
		}
	}
	keys := make([]string, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "span %s %d %d\n", k, totals[k].n, totals[k].sum)
	}
	return spans
}

func bits(f float64) uint64 { return math.Float64bits(f) }
