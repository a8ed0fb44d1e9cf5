package rubbos

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/trace"
)

// Setting up a closed workload on cold storage costs a share of the slabs
// its users' des.Procs and session records are minted in, 63 to a slab,
// and of the queue's arrays: about 0.05 allocations per user. A user's
// label is a slice of one string every workload shares, and its process
// body is its workload's, so neither costs an allocation of its own. No
// coroutine starts until a user's first run.
func TestStartAllocationsPerUser(t *testing.T) {
	const users = 2000
	cfg := DefaultClientConfig(users)
	table := NewTable()
	userLabels(users) // the shared labels outlast a trial; grow them first
	allocs := testing.AllocsPerRun(5, func() {
		des.DropStorage()
		env := des.NewEnv()
		if _, err := Start(env, cfg, table, &stubTarget{}, nil); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
	})
	des.DropStorage()
	if perUser := allocs / users; perUser > 0.06 {
		t.Errorf("%.3f allocations per user, want at most 0.06", perUser)
	}
}

// A warm Start, on the storage an earlier trial of as many users handed
// on, allocates nothing per user: its users' des.Procs and session
// records are the earlier trial's. What it allocates is the Env, the
// Workload and the workload's process body.
func TestWarmStartAllocatesNothingPerUser(t *testing.T) {
	const users = 2000
	cfg := DefaultClientConfig(users)
	table := NewTable()
	target := &stubTarget{}
	des.DropStorage()
	defer des.DropStorage()
	start := func() {
		env := des.NewEnv()
		if _, err := Start(env, cfg, table, target, nil); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
	}
	start() // cold: mints the storage the measured Starts adopt
	if allocs := testing.AllocsPerRun(5, start); allocs > 3 {
		t.Errorf("a warm Start of %d users made %v allocations, want at most 3", users, allocs)
	}
}

// sessionTarget serves every request at once and records the session
// record of each process it serves.
type sessionTarget struct{ seen map[*session]bool }

func (s *sessionTarget) Do(p *des.Proc, _ *Interaction, _ *Call) (bool, error) {
	s.seen[p.Data().(*session)] = true
	return true, nil
}

// Two workloads started on one Env, as a fleet's tenants are, take
// disjoint session records, on cold storage and on the warm storage the
// first pair handed on, whose records the second pair reuses.
func TestWorkloadsOnOneEnvTakeDisjointSessions(t *testing.T) {
	des.DropStorage()
	defer des.DropStorage()
	sizes := []int{100, 70}
	run := func() map[*session]bool {
		env := des.NewEnv()
		defer env.Shutdown()
		var targets []*sessionTarget
		for _, users := range sizes {
			cfg := DefaultClientConfig(users)
			cfg.RampUp, cfg.ThinkMean = 0, 10*time.Millisecond
			target := &sessionTarget{seen: map[*session]bool{}}
			targets = append(targets, target)
			if _, err := Start(env, cfg, NewTable(), target, nil); err != nil {
				t.Fatal(err)
			}
		}
		env.Run(time.Second)
		all := map[*session]bool{}
		for i, target := range targets {
			if len(target.seen) != sizes[i] {
				t.Errorf("workload %d served %d session records, want %d", i, len(target.seen), sizes[i])
			}
			for s := range target.seen {
				if all[s] {
					t.Errorf("workload %d served a session record of another workload", i)
				}
				all[s] = true
			}
		}
		return all
	}
	cold, warm := run(), run()
	for s := range warm {
		if !cold[s] {
			t.Fatal("the warm workloads minted session records of their own")
		}
	}
}

// The storage a Shutdown hands on pins nothing of the trial: once it is
// shut down, its Workload and the trace of a request in flight are
// collected, though the session records that held them stay kept.
func TestKeptSessionsPinNothing(t *testing.T) {
	des.DropStorage()
	defer des.DropStorage()
	env := des.NewEnv()
	cfg := DefaultClientConfig(50)
	cfg.RampUp, cfg.ThinkMean = 0, 10*time.Millisecond
	cfg.Tracer = trace.NewTracer(1, 1)
	w, err := Start(env, cfg, NewTable(), &overlapTarget{delay: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Run(time.Second)
	var tr *trace.Trace
	for _, slab := range env.Kept().(*sessions).slabs {
		for i := range slab {
			tr = cmp.Or(tr, slab[i].tr)
		}
	}
	if tr == nil || w.InFlight() != cfg.Users {
		t.Fatalf("%d requests in flight, trace %v: want every user's in flight, traced", w.InFlight(), tr)
	}
	collected := make(chan string, 2)
	runtime.SetFinalizer(w, func(*Workload) { collected <- "the Workload" })
	runtime.SetFinalizer(tr, func(*trace.Trace) { collected <- "the trace in flight" })
	w, tr = nil, nil
	env.Shutdown()
	deadline := time.After(5 * time.Second)
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of the Workload and the trace in flight collected after Shutdown; the kept storage pins the rest", got)
		}
	}
	if n := des.DropStorage(); n != 1 {
		t.Errorf("%d storage sets kept through the collection, want 1", n)
	}
}

// A closed user's ramp offset and first think are steps: until its first
// request a workload binds no coroutine.
func TestRampAndFirstThinkBindNoRunner(t *testing.T) {
	const users = 500
	env := des.NewEnv()
	defer env.Shutdown()
	cfg := DefaultClientConfig(users)
	cfg.RampUp = 10 * time.Second
	cfg.ThinkMean = 1000 * time.Hour
	w, err := Start(env, cfg, NewTable(), &fakeTarget{delay: time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Run(time.Minute)
	if w.Issued() != 0 {
		t.Fatalf("%d requests issued; the window must end inside every first think", w.Issued())
	}
	c := env.Counters()
	if c.Binds != 0 {
		t.Errorf("ramp and first think bound coroutines: %+v", c)
	}
	if c.Steps != 2*users {
		t.Errorf("%d steps, want 2 per user (start, end of ramp)", c.Steps)
	}
}

// flakyTarget serves with a fixed delay, slower every third request, and
// fails every fifth, so sessions take the error and abandon paths too.
type flakyTarget struct{ n int }

func (f *flakyTarget) Do(p *des.Proc, it *Interaction, _ *Call) (bool, error) {
	if !p.Bind() {
		return false, nil
	}
	f.n++
	d := 20 * time.Millisecond
	if f.n%3 == 0 {
		d = 60 * time.Millisecond
	}
	p.Sleep(d)
	if f.n%5 == 0 {
		return true, errors.New("flaky: error page")
	}
	return true, nil
}

// sleepingStart is the closed loop written with Sleep, one coroutine per
// user for the whole run: the reference Start's resting sessions must
// reproduce event for event.
func sleepingStart(env *des.Env, cfg ClientConfig, table *Table, target Target, collect Collector) {
	for u := 0; u < cfg.Users; u++ {
		label := fmt.Sprintf("user-%d", u)
		r := rng.NewStream(cfg.Seed, label)
		offset := time.Duration(uint64(cfg.RampUp) * uint64(u) / uint64(cfg.Users))
		env.Go(label, func(p *des.Proc) {
			p.Sleep(offset)
			state := StoriesOfTheDay
			think := cfg.ThinkMean
			for {
				p.Sleep(time.Duration(r.Exp(float64(think))))
				think = cfg.ThinkMean
				it := &table.Items[state]
				issued := p.Now()
				_, err := target.Do(p, it, &Call{})
				rt := p.Now() - issued
				collect(it, issued, rt, err)
				if err != nil {
					continue
				}
				if rt > cfg.Patience {
					state = StoriesOfTheDay
					think = cfg.AbandonThink
					continue
				}
				state = cfg.Matrix.Next(r, state)
			}
		})
	}
}

// Resting sessions draw their streams and schedule their wakes exactly as
// sleeping ones do, through the error and abandon paths alike.
func TestRestingSessionsMatchSleepingLoop(t *testing.T) {
	cfg := DefaultClientConfig(50)
	cfg.RampUp = 2 * time.Second
	cfg.ThinkMean = 300 * time.Millisecond
	cfg.Patience = 50 * time.Millisecond
	cfg.AbandonThink = time.Second
	cfg.Matrix = ReadWriteMix()
	table := NewTable()
	run := func(start func(*des.Env, Collector)) []string {
		env := des.NewEnv()
		defer env.Shutdown()
		var log []string
		start(env, func(it *Interaction, issued, rt time.Duration, err error) {
			log = append(log, fmt.Sprintf("%v %s %v %v", issued, it.Name, rt, err))
		})
		env.Run(30 * time.Second)
		return log
	}
	want := run(func(env *des.Env, c Collector) {
		sleepingStart(env, cfg, table, &flakyTarget{}, c)
	})
	var w *Workload
	got := run(func(env *des.Env, c Collector) {
		var err error
		if w, err = Start(env, cfg, table, &flakyTarget{}, c); err != nil {
			t.Fatal(err)
		}
	})
	if len(want) < 1000 {
		t.Fatalf("reference issued only %d requests", len(want))
	}
	if w.Failed() == 0 || w.Abandoned() == 0 {
		t.Fatalf("failed=%d abandoned=%d: error and abandon paths not exercised", w.Failed(), w.Abandoned())
	}
	if len(got) != len(want) {
		t.Fatalf("resting sessions finished %d requests, sleeping ones %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d: resting %q, sleeping %q", i, got[i], want[i])
		}
	}
}

// BenchmarkWarmStart runs a campaign's trials back to back: each starts
// 2000 users on the storage the one before it handed on, runs a second of
// their ramp and shuts down.
func BenchmarkWarmStart(b *testing.B) {
	cfg := DefaultClientConfig(2000)
	cfg.RampUp, cfg.ThinkMean = time.Second, 100*time.Millisecond
	table := NewTable()
	target := &overlapTarget{delay: 50 * time.Millisecond}
	des.DropStorage()
	defer des.DropStorage()
	b.ReportAllocs()
	for range b.N {
		env := des.NewEnv()
		if _, err := Start(env, cfg, table, target, nil); err != nil {
			b.Fatal(err)
		}
		env.Run(time.Second)
		env.Shutdown()
	}
}
