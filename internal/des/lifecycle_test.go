package des

import (
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
	if tm.ev != nil {
		t.Fatal("new timer armed")
	}
	// Re-arm 100k times: only the last schedule survives.
	for i := 0; i < 100000; i++ {
		tm.Arm(time.Duration(i%1000+1) * time.Millisecond)
	}
	if tm.ev == nil {
		t.Fatal("re-armed timer has no pending firing")
	}
	if q := env.queueLen(); q > compactMin+2 {
		t.Errorf("queueLen() = %d after re-arm churn, want <= %d", q, compactMin+2)
	}
	env.Run(2 * time.Second)
	if fires != 1 {
		t.Fatalf("timer fired %d times, want 1 (only the last arm)", fires)
	}
	if tm.ev != nil {
		t.Error("fired timer still armed")
	}

	tm.Arm(time.Second)
	tm.Stop()
	if tm.ev != nil {
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
// already resolved), not a double-recycle of the record.
func TestTimerStopInsideCallback(t *testing.T) {
	env := NewEnv()
	var tm *Timer
	tm = env.NewTimer(func() { tm.Stop() })
	tm.Arm(time.Second)
	env.Run(2 * time.Second)
	if tm.ev != nil {
		t.Error("timer armed after self-stop")
	}
	// The queue must still drain cleanly.
	env.After(time.Second, func() {})
	if n := env.Run(5 * time.Second); n != 1 {
		t.Errorf("Run processed %d events, want 1", n)
	}
}

// Scheduling from inside a callback may reuse the fired event's record at
// the same timestamp; ordering must still be schedule order.
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
// deletion + compaction) and the steady state must not allocate (stopped
// and fired records are recycled at once).
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
