package rubbos

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/rng"
)

// Setting up a closed workload costs four allocations per user — its label,
// its session state, its process body and its des.Proc — plus a share of
// the Proc slabs and queue nodes. No coroutine starts until a user's first
// run.
func TestStartAllocationsPerUser(t *testing.T) {
	const users = 2000
	cfg := DefaultClientConfig(users)
	table := NewTable()
	allocs := testing.AllocsPerRun(5, func() {
		env := des.NewEnv()
		if _, err := Start(env, cfg, table, &stubTarget{}, nil); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
	})
	if perUser := allocs / users; perUser > 4.1 {
		t.Errorf("%.2f allocations per user, want at most 4.1", perUser)
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
