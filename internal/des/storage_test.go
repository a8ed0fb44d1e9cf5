package des

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// churn runs users processes on env until horizon and shuts env down. The
// processes rest, sleep on a coroutine, suspend until a ticking Timer unparks
// them, re-arm a shared Timer (stopping its pending firing), schedule At
// callbacks, and finish and start a successor, so every kind of queue
// entry, every queue path and Proc reuse all take part. It returns what
// fired, in order, and the engine's counters.
func churn(env *Env, users int, seed int64, horizon time.Duration) ([]string, Counters) {
	rnd := rand.New(rand.NewSource(seed))
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%s@%d", what, env.Now())) }
	us := func(n int) time.Duration { return time.Duration(1+rnd.Intn(n)) * time.Microsecond }
	var waiting []*Proc
	var tick *Timer
	tick = env.NewTimer(func() {
		note("tick")
		for _, p := range waiting {
			p.Unpark()
		}
		waiting = waiting[:0]
		tick.Arm(us(3000))
	})
	tick.Arm(us(3000))
	moved := env.NewTimer(func() { note("moved") })
	var user func(p *Proc)
	user = func(p *Proc) {
		note(p.Name())
		switch rnd.Intn(6) {
		case 0:
			p.Rest(us(2000))
		case 1:
			if p.Bind() {
				p.Sleep(us(500))
				p.Rest(us(2000))
			}
		case 2:
			if p.Bind() {
				waiting = append(waiting, p)
				p.Suspend()
			}
		case 3:
			moved.Arm(us(1000))
			p.Rest(us(2000))
		case 4:
			env.After(us(100), func() { note("after") })
			p.Rest(us(2000))
		default:
			env.GoStep(p.Name(), user)
		}
	}
	for i := 0; i < users; i++ {
		env.GoStep(fmt.Sprint("user", i), user)
	}
	env.Run(horizon)
	c := env.Counters()
	env.Shutdown()
	return log, c
}

// A new Env that adopts the storage of a larger, differently shaped one
// replays exactly what an Env on storage of its own replays.
func TestWarmEnvReplaysNewEnv(t *testing.T) {
	DropStorage()
	env := NewEnv()
	if env.slabs != nil || env.q.nodes != nil {
		t.Fatal("NewEnv adopted storage from an empty pool")
	}
	want, wantC := churn(env, 40, 1, 50*time.Millisecond)
	churn(NewEnv(), 3000, 2, 100*time.Millisecond)
	env = NewEnv()
	if len(env.slabs) == 0 || len(env.q.nodes) == 0 {
		t.Fatalf("NewEnv adopted %d Proc slabs and %d node chunks, want some of each",
			len(env.slabs), len(env.q.nodes))
	}
	got, gotC := churn(env, 40, 1, 50*time.Millisecond)
	if len(want) < 1000 {
		t.Fatalf("the small run fired %d events, too few to compare", len(want))
	}
	if !slices.Equal(got, want) || gotC != wantC {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Errorf("on warm storage the run diverged at event %d of %d (%d on its own); counters %+v, want %+v",
			i, len(got), len(want), gotC, wantC)
	}
}

// Envs that shut down and start on several goroutines at once, as a
// parallel campaign's trials do, trade sets through the pool and each
// replays exactly what it replays on storage of its own.
func TestStoragePoolConcurrentEnvs(t *testing.T) {
	DropStorage()
	const workers, runs = 4, 6
	want := make([][]string, workers)
	for w := range want {
		want[w], _ = churn(NewEnv(), 20+20*w, int64(w), 20*time.Millisecond)
		DropStorage()
	}
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < runs; i++ {
				if got, _ := churn(NewEnv(), 20+20*w, int64(w), 20*time.Millisecond); !slices.Equal(got, want[w]) {
					t.Errorf("worker %d, run %d: %d events, diverging from the %d of a run on storage of its own", w, i, len(got), len(want[w]))
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if n := DropStorage(); n > runtime.GOMAXPROCS(0) {
		t.Errorf("the pool held %d sets, more than GOMAXPROCS = %d", n, runtime.GOMAXPROCS(0))
	}
}

// A kept set is exactly a new Env's state and holds nothing of the Env it
// came from: every Proc and the free list of Procs cleared; the queue
// empty. A Timer armed at Shutdown is left unarmed, and the Env drops its
// timer registry and spare one-shot timers.
func TestKeptStorageIsNew(t *testing.T) {
	DropStorage()
	env := NewEnv()
	armed := env.NewTimer(func() {})
	armed.Arm(time.Hour)
	churn(env, 2000, 3, 100*time.Millisecond)
	if armed.key != 0 {
		t.Error("a Timer armed at Shutdown still reports a pending firing")
	}
	if env.timers != nil || env.spare != nil {
		t.Errorf("the shut-down Env keeps %d timers and %d spare ones", len(env.timers), len(env.spare))
	}
	if len(storagePool.sets) != 1 {
		t.Fatalf("the pool holds %d sets after one Shutdown, want 1", len(storagePool.sets))
	}
	s := storagePool.sets[0]
	for _, slab := range s.slabs {
		if len(slab) != 0 || cap(slab) != procSlab {
			t.Fatalf("kept Proc slab has length %d and capacity %d, want 0 and %d", len(slab), cap(slab), procSlab)
		}
		for _, p := range slab[:procSlab] {
			if !reflect.ValueOf(p).IsZero() {
				t.Fatalf("kept Proc %q not cleared", p.name)
			}
		}
	}
	if len(s.procs) != 0 || slices.ContainsFunc(s.procs[:cap(s.procs)], func(p *Proc) bool { return p != nil }) {
		t.Error("the kept free list of Procs is not empty and cleared")
	}
	q := s.q
	if len(q.run)+len(q.cur)+len(q.heads)+len(q.far) != 0 || slices.ContainsFunc(q.heads[:cap(q.heads)], func(h uint32) bool { return h != 0 }) {
		t.Error("the kept queue's arrays are not empty and zeroed")
	}
	if len(q.nodes) == 0 || cap(q.heads) == 0 {
		t.Error("the kept queue has no node chunks or wheel to lend")
	}
	if !reflect.DeepEqual(q, eventQueue{run: q.run, cur: q.cur, heads: q.heads, far: q.far, nodes: q.nodes}) {
		t.Errorf("the kept queue is not a new queue: %+v", q)
	}
	DropStorage()
}

// The pool keeps at most GOMAXPROCS sets, nothing of an Env that scheduled
// nothing, and nothing at all once dropped.
func TestStoragePoolIsBounded(t *testing.T) {
	DropStorage()
	NewEnv().Shutdown()
	if n := DropStorage(); n != 0 {
		t.Errorf("the pool kept %d sets of an Env that scheduled nothing, want 0", n)
	}
	envs := make([]*Env, runtime.GOMAXPROCS(0)+2)
	for i := range envs {
		envs[i] = NewEnv()
		envs[i].After(time.Second, func() {})
		envs[i].Run(2 * time.Second)
	}
	for _, env := range envs {
		env.Shutdown()
	}
	if n := DropStorage(); n != runtime.GOMAXPROCS(0) {
		t.Errorf("%d sets kept of %d Envs shut down, want GOMAXPROCS = %d", n, len(envs), runtime.GOMAXPROCS(0))
	}
	if n := DropStorage(); n != 0 {
		t.Errorf("%d sets kept after DropStorage, want 0", n)
	}
}

// restOnce rests its process 1 ms at its first step and finishes it at
// the next.
func restOnce(p *Proc) {
	if p.Now() == 0 {
		p.Rest(time.Millisecond)
	}
}

// On warm storage a trial mints no slabs: a NewEnv → 10⁴ GoStep → Run →
// Shutdown cycle, which on an Env's own storage mints its Procs and queue
// nodes a slab or chunk at a time (see
// TestSuspendedProcsAllocateOnlySlabs), allocates only the Env itself.
func TestWarmCycleMintsNoSlabs(t *testing.T) {
	const n = 10000
	allocs := testing.AllocsPerRun(5, func() {
		env := NewEnv()
		for i := 0; i < n; i++ {
			env.GoStep("user", restOnce)
		}
		env.Run(time.Second)
		if env.Live() != 0 || env.Counters().Steps != 2*n {
			t.Fatalf("Live() = %d after %d steps, want 0 after %d", env.Live(), env.Counters().Steps, 2*n)
		}
		env.Shutdown()
	})
	if allocs > 1 {
		t.Errorf("%v mallocs per warm cycle of %d processes, want 1, the Env", allocs, n)
	}
	DropStorage()
}

// After Shutdown no handle of the Env writes into the storage a second
// Env runs on: At, After, Timer.Arm, ArmAt and Stop and the Unpark of a
// Proc the second Env has not reused each panic, called from inside the
// second Env's run, which goes on undisturbed.
func TestShutdownEnvRefusesLateCalls(t *testing.T) {
	DropStorage()
	old := NewEnv()
	timer := old.NewTimer(func() {})
	timer.Arm(time.Hour)
	var parked *Proc
	for i := 0; i < 8; i++ {
		old.Go("parked", func(p *Proc) {
			parked = p
			p.Park()
		})
	}
	old.Run(time.Millisecond)
	old.Shutdown()

	env := NewEnv()
	if env.slabs == nil {
		t.Fatal("the second Env did not adopt the first one's storage")
	}
	ticks := 0
	env.GoStep("ticker", func(p *Proc) {
		ticks++
		p.Rest(time.Millisecond)
	})
	late := []struct {
		name string
		call func()
	}{
		{"At", func() { old.At(time.Hour, func() {}) }},
		{"After", func() { old.After(time.Second, func() {}) }},
		{"Timer.Arm", func() { timer.Arm(time.Second) }},
		{"Timer.ArmAt", func() { timer.ArmAt(time.Hour) }},
		{"Timer.Stop", timer.Stop},
		{"Proc.Unpark", parked.Unpark},
	}
	for i, c := range late {
		env.At(time.Duration(i)*time.Millisecond+time.Microsecond, func() {
			defer func() {
				v := recover()
				if s, _ := v.(string); !strings.Contains(s, "Shutdown") {
					t.Errorf("late %s on a shut-down Env: recovered %v, want a panic naming Shutdown", c.name, v)
				}
			}()
			c.call()
		})
	}
	env.Run(10 * time.Millisecond)
	if err := env.Audit(); err != nil {
		t.Error(err)
	}
	if ticks != 11 || env.Pending() != 1 || env.Live() != 1 {
		t.Errorf("the second Env ticked %d times with %d events pending and %d processes live, want 11, 1 and 1",
			ticks, env.Pending(), env.Live())
	}
	env.Shutdown()
	DropStorage()
}

// keeper counts its Resets.
type keeper struct{ resets int }

func (k *keeper) Reset() { k.resets++ }

// The value kept with an Env's storage is Reset once at Shutdown and goes
// with the storage: to the next NewEnv, and not past DropStorage.
func TestKeptValueGoesWithStorage(t *testing.T) {
	DropStorage()
	defer DropStorage()
	k := &keeper{}
	env := NewEnv()
	env.Keep(k)
	env.GoStep("p", func(p *Proc) {})
	env.Run(time.Second)
	env.Shutdown()
	if k.resets != 1 || env.Kept() != nil {
		t.Fatalf("after Shutdown: %d resets, Env keeps %v; want 1 reset and nothing kept", k.resets, env.Kept())
	}
	warm := NewEnv()
	if warm.Kept() != k {
		t.Fatalf("a warm Env keeps %v, want the shut-down Env's value", warm.Kept())
	}
	warm.Shutdown()
	if k.resets != 2 {
		t.Errorf("%d resets after the warm Env's Shutdown, want 2", k.resets)
	}
	DropStorage()
	if cold := NewEnv(); cold.Kept() != nil {
		t.Errorf("an Env after DropStorage keeps %v", cold.Kept())
	}
}
