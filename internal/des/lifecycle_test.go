package des

import (
	"strings"
	"testing"
	"time"
)

// Pending counts callbacks that will still run: stopped timers drop out
// immediately, even while their queue entries await lazy removal.
func TestPendingExcludesCanceled(t *testing.T) {
	env := NewEnv()
	tms := make([]*Timer, 10)
	for i := range tms {
		tms[i] = env.NewTimer(func() {})
		tms[i].Arm(time.Duration(i+1) * time.Second)
	}
	if got := env.Pending(); got != 10 {
		t.Fatalf("Pending() = %d, want 10", got)
	}
	for i := 0; i < 4; i++ {
		tms[i].Stop()
	}
	if got := env.Pending(); got != 6 {
		t.Errorf("Pending() = %d after 4 stops, want 6", got)
	}
	env.Run(20 * time.Second)
	if got := env.Pending(); got != 0 {
		t.Errorf("Pending() = %d after Run, want 0", got)
	}
}

// Stop/re-arm churn must not grow the physical queue without bound: dead
// entries are dropped by compaction once they outnumber live ones, keeping
// the queue within a constant factor of the live event count.
func TestCancelChurnBoundsQueue(t *testing.T) {
	env := NewEnv()
	const live = 100
	tm := env.NewTimer(func() {})
	for i := 0; i < 200000; i++ {
		if i%2 == 0 {
			tm.Stop()
		}
		tm.Arm(time.Hour)
	}
	// Keep a floor of live events so compaction has survivors to keep.
	for i := 0; i < live; i++ {
		env.After(time.Hour, func() {})
	}
	if q := env.queueLen(); q > 2*(live+1)+compactMin {
		t.Errorf("queueLen() = %d after churn, want <= %d (2x live + compactMin)",
			q, 2*(live+1)+compactMin)
	}
	if p := env.Pending(); p != live+1 {
		t.Errorf("Pending() = %d, want %d", p, live+1)
	}
}

// A Timer re-arms without leaking queue entries or allocating, and Stop
// prevents the pending firing.
func TestTimerRearmAndStop(t *testing.T) {
	env := NewEnv()
	fires := 0
	tm := env.NewTimer(func() { fires++ })
	if tm.key != 0 {
		t.Fatal("new timer armed")
	}
	// Re-arm 100k times: only the last schedule survives.
	for i := 0; i < 100000; i++ {
		tm.Arm(time.Duration(i%1000+1) * time.Millisecond)
	}
	if tm.key == 0 {
		t.Fatal("re-armed timer has no pending firing")
	}
	if q := env.queueLen(); q > compactMin+2 {
		t.Errorf("queueLen() = %d after re-arm churn, want <= %d", q, compactMin+2)
	}
	env.Run(2 * time.Second)
	if fires != 1 {
		t.Fatalf("timer fired %d times, want 1 (only the last arm)", fires)
	}
	if tm.key != 0 {
		t.Error("fired timer still armed")
	}

	tm.Arm(time.Second)
	tm.Stop()
	if tm.key != 0 {
		t.Error("stopped timer armed")
	}
	env.Run(10 * time.Second)
	if fires != 1 {
		t.Errorf("stopped timer fired (total %d)", fires)
	}

	// Re-arming from inside the callback keeps the timer alive.
	count := 0
	var periodic *Timer
	periodic = env.NewTimer(func() {
		count++
		if count < 5 {
			periodic.Arm(time.Second)
		}
	})
	periodic.Arm(time.Second)
	env.Run(100 * time.Second)
	if count != 5 {
		t.Errorf("periodic timer fired %d times, want 5", count)
	}
}

// Stop from within the timer's own callback must be a no-op (the firing
// already resolved), not a second dead entry on the books.
func TestTimerStopInsideCallback(t *testing.T) {
	env := NewEnv()
	var tm *Timer
	tm = env.NewTimer(func() { tm.Stop() })
	tm.Arm(time.Second)
	env.Run(2 * time.Second)
	if tm.key != 0 {
		t.Error("timer armed after self-stop")
	}
	// The queue must still drain cleanly.
	env.After(time.Second, func() {})
	if n := env.Run(5 * time.Second); n != 1 {
		t.Errorf("Run processed %d events, want 1", n)
	}
}

// Scheduling from inside a callback reuses the fired callback's one-shot
// timer at the same timestamp; ordering must still be schedule order.
func TestRecycledRecordPreservesTieOrder(t *testing.T) {
	env := NewEnv()
	var order []int
	env.At(time.Second, func() {
		order = append(order, 1)
		env.At(time.Second, func() { order = append(order, 3) })
	})
	env.At(time.Second, func() { order = append(order, 2) })
	env.Run(2 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

// BenchmarkTimerRearm measures the stop-and-reschedule pattern that
// dominates PS-CPU completion management: the queue must stay small (lazy
// deletion + compaction) and the steady state must not allocate (the
// After's one-shot timer goes back on the spare list when it fires).
func BenchmarkTimerRearm(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	noop := func() {}
	tm := env.NewTimer(noop)
	for i := 0; i < b.N; i++ {
		tm.Arm(time.Hour)
		env.After(0, noop)
		env.Run(env.Now())
	}
}

// A queue key packs a 40-bit seq above a 24-bit ref without overlap, and
// each limit panics, naming itself, at the one place it is minted: the
// seq in key, a Proc's or a Timer's index in refIndex.
func TestKeyGuards(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	env.seq = 1<<40 - 1
	tm := env.NewTimer(func() {})
	tm.idx = timerRef - 1
	tm.Arm(time.Second)
	if seq, ref := tm.key>>refBits, (entry{key: tm.key}).ref(); seq != 1<<40-1 || ref != 1<<refBits-1 {
		t.Errorf("key %#x unpacks to seq %#x and ref %#x, want the largest of each", tm.key, seq, ref)
	}
	for _, c := range []struct {
		want string
		call func()
	}{
		{"2^40 events", func() { env.After(time.Second, func() {}) }},
		{"2^23 Procs", func() { refIndex(timerRef, "Procs") }},
		{"2^23 timers", func() { refIndex(timerRef, "timers") }},
	} {
		func() {
			defer func() {
				if s, _ := recover().(string); !strings.Contains(s, c.want) {
					t.Errorf("past the limit: recovered %q, want a panic naming %q", s, c.want)
				}
			}()
			c.call()
		}()
	}
	if i := refIndex(timerRef-1, "Procs"); i != timerRef-1 {
		t.Errorf("refIndex(%d) = %d", timerRef-1, i)
	}
}

// Once warm, At and After allocate nothing: a fired callback's one-shot
// timer goes back on the spare list before the callback runs, so callbacks
// that re-arm themselves, as the event microbenchmark's do, reuse their
// own.
func TestAtAllocatesNothingWhenWarm(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	const n = 64
	ticks := make([]func(), n)
	fired := 0
	for i := range ticks {
		ticks[i] = func() {
			fired++
			env.After(time.Millisecond, ticks[i])
		}
		env.At(time.Millisecond*time.Duration(i)/n, ticks[i])
	}
	env.Run(time.Millisecond)
	if allocs := testing.AllocsPerRun(10, func() { env.Run(env.Now() + time.Millisecond) }); allocs != 0 {
		t.Errorf("%v mallocs per millisecond of %d self-re-arming callbacks, want 0", allocs, n)
	}
	if fired < 12*n {
		t.Errorf("%d callbacks fired in 12 ms, want at least %d", fired, 12*n)
	}
	noop := func() {}
	if allocs := testing.AllocsPerRun(100, func() {
		env.At(env.Now()+time.Microsecond, noop)
		env.After(0, noop)
		env.Run(env.Now() + time.Microsecond)
	}); allocs != 0 {
		t.Errorf("%v mallocs per At and After, want 0", allocs)
	}
	if len(env.timers) > n+2 {
		t.Errorf("%d timers made for %d callbacks pending at once", len(env.timers), n+2)
	}
}

// Compaction drops only dead Timer entries: process wakes, in the lane and
// in the calendar, survive it and fire.
func TestCompactionKeepsProcessEntries(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	const procs = 100
	starts, wakes := 0, 0
	for i := 0; i < procs; i++ {
		env.GoStep("user", func(p *Proc) {
			if p.Now() == 0 {
				starts++
				p.Rest(time.Hour + time.Duration(i))
				return
			}
			wakes++
		})
	}
	tm := env.NewTimer(func() {})
	churn := func() {
		for i := 0; i < 4*compactMin; i++ {
			tm.Arm(time.Minute)
		}
		if q := env.queueLen(); q > 2*(procs+1)+compactMin {
			t.Fatalf("queueLen() = %d after re-arm churn: no compaction ran", q)
		}
		if p := env.Pending(); p != procs+1 {
			t.Fatalf("Pending() = %d after compaction, want %d", p, procs+1)
		}
		tm.Stop()
	}
	churn() // the starts wait in the lane
	env.Run(0)
	churn() // the rests' wakes wait in the calendar
	env.Run(2 * time.Hour)
	if starts != procs || wakes != procs || env.Live() != 0 {
		t.Errorf("%d starts and %d wakes of %d processes, %d live; want every one and 0", starts, wakes, procs, env.Live())
	}
	if err := env.Audit(); err != nil {
		t.Error(err)
	}
}

// Shutdown leaves every Timer unarmed, a one-shot At timer included, and
// the next Env on its storage fires none of them. That Stop, Arm and ArmAt
// on a shut-down Env still panic is TestShutdownEnvRefusesLateCalls's.
func TestShutdownDisarmsTimers(t *testing.T) {
	DropStorage()
	old := NewEnv()
	fired := 0
	tm := old.NewTimer(func() { fired++ })
	tm.Arm(time.Second)
	old.At(time.Second, func() { fired++ })
	once := old.timers[1]
	old.Shutdown()
	if tm.key != 0 || once.key != 0 {
		t.Errorf("after Shutdown the Timer's key is %#x and the At timer's %#x, want both unarmed", tm.key, once.key)
	}
	env := NewEnv()
	defer env.Shutdown()
	env.GoStep("user", func(p *Proc) { p.Rest(time.Millisecond) })
	env.Run(2 * time.Second)
	if fired != 0 {
		t.Errorf("%d callbacks of the shut-down Env fired", fired)
	}
	DropStorage()
}
