package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	env := NewEnv()
	var got []time.Duration
	for _, d := range []time.Duration{5, 1, 3, 2, 4} {
		d := d * time.Second
		env.At(d, func() { got = append(got, env.Now()) })
	}
	env.Run(10 * time.Second)
	want := []time.Duration{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w*time.Second {
			t.Errorf("event %d fired at %v, want %v", i, got[i], w*time.Second)
		}
	}
}

func TestTiesBreakInScheduleOrder(t *testing.T) {
	env := NewEnv()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		env.At(time.Second, func() { got = append(got, i) })
	}
	env.Run(2 * time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order %v, want ascending", got)
		}
	}
}

func TestRunHorizonAndResume(t *testing.T) {
	env := NewEnv()
	count := 0
	env.At(1*time.Second, func() { count++ })
	env.At(3*time.Second, func() { count++ })
	n := env.Run(2 * time.Second)
	if n != 1 || count != 1 {
		t.Fatalf("first Run processed %d events (count %d), want 1", n, count)
	}
	if env.Now() != 2*time.Second {
		t.Fatalf("clock %v after Run(2s), want 2s", env.Now())
	}
	env.Run(5 * time.Second)
	if count != 2 {
		t.Fatalf("count %d after second Run, want 2", count)
	}
	if env.Now() != 5*time.Second {
		t.Fatalf("clock %v, want 5s", env.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	env := NewEnv()
	env.At(time.Second, func() {})
	env.Run(2 * time.Second)
	defer func() {
		if recover() == nil {
			t.Error("At in the past did not panic")
		}
	}()
	env.At(time.Second, func() {})
}

func TestProcSleep(t *testing.T) {
	env := NewEnv()
	var marks []time.Duration
	env.Go("sleeper", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Sleep(2 * time.Second)
		marks = append(marks, p.Now())
		p.Sleep(3 * time.Second)
		marks = append(marks, p.Now())
	})
	env.Run(10 * time.Second)
	want := []time.Duration{0, 2 * time.Second, 5 * time.Second}
	if len(marks) != len(want) {
		t.Fatalf("marks %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Errorf("mark %d = %v, want %v", i, marks[i], want[i])
		}
	}
	if env.Live() != 0 {
		t.Errorf("Live() = %d after proc finished, want 0", env.Live())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			env.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					log = append(log, name)
					p.Sleep(time.Second)
				}
			})
		}
		env.Run(10 * time.Second)
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("trial %d length %d, want %d", trial, len(got), len(first))
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("trial %d diverged at %d: %v vs %v", trial, i, got, first)
				}
			}
		}
	}
}

func TestParkUnpark(t *testing.T) {
	env := NewEnv()
	var waiter *Proc
	woke := time.Duration(-1)
	waiter = env.Go("waiter", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	env.Go("waker", func(p *Proc) {
		p.Sleep(4 * time.Second)
		waiter.Unpark()
	})
	env.Run(10 * time.Second)
	if woke != 4*time.Second {
		t.Fatalf("waiter woke at %v, want 4s", woke)
	}
}

func TestShutdownUnwindsParkedProcs(t *testing.T) {
	env := NewEnv()
	env.Go("parked", func(p *Proc) { p.Park() })
	env.Go("late", func(p *Proc) { p.Sleep(time.Hour) })
	env.Run(time.Second)
	if env.Live() != 2 {
		t.Fatalf("Live() = %d, want 2", env.Live())
	}
	env.Shutdown()
	if env.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", env.Live())
	}
}

func TestShutdownUnwindsNeverStartedProc(t *testing.T) {
	env := NewEnv()
	started := false
	// Start event scheduled at t=0 but we never call Run, so the process
	// is still waiting to be started.
	env.Go("never", func(p *Proc) { started = true })
	env.Shutdown()
	if env.Live() != 0 {
		t.Fatalf("Live() = %d, want 0", env.Live())
	}
	if started {
		t.Error("process body ran despite never being scheduled")
	}
}

func TestNestedSpawn(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("parent", func(p *Proc) {
		order = append(order, "parent-start")
		p.env.Go("child", func(c *Proc) {
			order = append(order, "child")
		})
		p.Sleep(time.Millisecond)
		order = append(order, "parent-end")
	})
	env.Run(time.Second)
	want := []string{"parent-start", "child", "parent-end"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// Property: for any set of event times, callbacks observe a non-decreasing
// clock equal to their scheduled time.
func TestQuickEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		env := NewEnv()
		var fired []time.Duration
		for _, o := range offsets {
			d := time.Duration(o) * time.Millisecond
			env.At(d, func() { fired = append(fired, env.Now()) })
		}
		env.Run(time.Duration(1<<16) * time.Millisecond)
		if len(fired) != len(offsets) {
			return false
		}
		sorted := make([]time.Duration, len(offsets))
		for i, o := range offsets {
			sorted[i] = time.Duration(o) * time.Millisecond
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	env := NewEnv()
	var tick func()
	i := 0
	tick = func() {
		i++
		if i < b.N {
			env.After(time.Microsecond, tick)
		}
	}
	env.After(time.Microsecond, tick)
	b.ResetTimer()
	env.Run(time.Duration(b.N+1) * time.Microsecond)
}

func BenchmarkProcSwitch(b *testing.B) {
	env := NewEnv()
	env.Go("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	env.Run(time.Duration(b.N+1) * time.Microsecond)
	b.StopTimer()
	env.Shutdown()
}

func TestProcDataSlot(t *testing.T) {
	env := NewEnv()
	var got any
	env.Go("carrier", func(p *Proc) {
		if p.Data() != nil {
			t.Error("fresh proc has data")
		}
		p.SetData("request-42")
		p.Sleep(time.Second)
		got = p.Data()
		p.SetData(nil)
		if p.Data() != nil {
			t.Error("cleared data persists")
		}
	})
	env.Run(2 * time.Second)
	if got != "request-42" {
		t.Errorf("data across a sleep = %v", got)
	}
	env.Shutdown()
}
