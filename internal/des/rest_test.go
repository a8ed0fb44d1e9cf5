package des

import (
	"strings"
	"testing"
	"time"
	"unsafe"
)

// Proc is 64 bytes on 64-bit targets: its slab index, which queue entries
// name it by, took the last 8 bytes, so the Procs of a trial's peak of live
// processes (10⁵ closed users at scale) take no more than that. The
// bound, not the size, is asserted, so the test holds on 32-bit targets
// too.
func TestProcIs64Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Proc{}); n > 64 {
		t.Errorf("unsafe.Sizeof(Proc{}) = %d, want at most 64", n)
	}
}

// A Proc slab fits the 4096-byte size class on 64-bit targets: procSlab
// Procs plus the 8-byte header the runtime puts on a pointerful allocation
// over 512 bytes take at most 4096 bytes, and one Proc more would spill
// into the 4864-byte class.
func TestProcSlabFillsSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the 8-byte header and the 4096-byte class are 64-bit figures")
	}
	size := unsafe.Sizeof(Proc{})
	if n := procSlab*size + 8; n > 4096 || n+size <= 4096 {
		t.Errorf("%d Procs of %d bytes plus the header take %d bytes, want the most that fit 4096", procSlab, size, n)
	}
}

// A queue entry is its time and one packed key, 16 bytes on every target,
// and a lane or bucket node adds only its link.
func TestQueueEntryIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Errorf("unsafe.Sizeof(entry{}) = %d, want 16", n)
	}
	if n := unsafe.Sizeof(node{}); n > 24 {
		t.Errorf("unsafe.Sizeof(node{}) = %d, want at most 24", n)
	}
}

// Rest schedules the same wake Sleep would: a resting process and a
// sleeping one, started in the same order, wake in the same (at, seq)
// order against a bystander scheduled at the same instants.
func TestRestWakesLikeSleep(t *testing.T) {
	trace := func(rest bool) []string {
		env := NewEnv()
		defer env.Shutdown()
		var log []string
		runs := 0
		env.Go("user", func(p *Proc) {
			if rest {
				if runs < 3 {
					runs++
					log = append(log, "user@"+p.Now().String())
					p.Rest(time.Second)
				}
				return
			}
			for i := 0; i < 3; i++ {
				log = append(log, "user@"+p.Now().String())
				p.Sleep(time.Second)
			}
		})
		for i := 0; i < 4; i++ {
			env.At(time.Duration(i)*time.Second, func() { log = append(log, "tick@"+env.Now().String()) })
		}
		env.Run(10 * time.Second)
		return log
	}
	sleeping, resting := trace(false), trace(true)
	if strings.Join(resting, " ") != strings.Join(sleeping, " ") {
		t.Errorf("resting order\n  %v\nsleeping order\n  %v", resting, sleeping)
	}
}

// A panic in a run that began at a Rest wake surfaces from Run as a
// *ProcPanic naming the process, and finishes it.
func TestPanicAfterRestWake(t *testing.T) {
	env := NewEnv()
	runs := 0
	env.Go("rested", func(p *Proc) {
		runs++
		if runs == 1 {
			p.Rest(time.Second)
			return
		}
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		env.Run(time.Hour)
	}()
	pp, ok := got.(*ProcPanic)
	if !ok {
		t.Fatalf("Run recovered %T (%v), want *ProcPanic", got, got)
	}
	if pp.Proc != "rested" || pp.Value != "kaboom" {
		t.Errorf("ProcPanic{Proc: %q, Value: %v}, want rested/kaboom", pp.Proc, pp.Value)
	}
	if env.Live() != 0 {
		t.Errorf("Live() = %d after the panic, want 0", env.Live())
	}
	env.Shutdown()
	if env.Live() != 0 || runs != 2 {
		t.Errorf("after Shutdown: Live() = %d, %d runs; want 0 and 2", env.Live(), runs)
	}
}

// After Rest a run must return: blocking again, or resting twice, panics.
// A process that panics after Rest is finished; its pending wake does not
// run it again.
func TestBlockingAfterRestPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		then func(p *Proc)
		want string
	}{
		{"Sleep", func(p *Proc) { p.Sleep(time.Second) }, "Sleep after Rest"},
		{"Park", func(p *Proc) { p.Park() }, "Park after Rest"},
		{"Rest", func(p *Proc) { p.Rest(time.Second) }, "Rest twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv()
			defer env.Shutdown()
			runs := 0
			env.Go("bad", func(p *Proc) {
				runs++
				p.Rest(time.Second)
				tc.then(p)
			})
			var got any
			func() {
				defer func() { got = recover() }()
				env.Run(time.Hour)
			}()
			pp, ok := got.(*ProcPanic)
			if !ok {
				t.Fatalf("Run recovered %T (%v), want *ProcPanic", got, got)
			}
			if s, _ := pp.Value.(string); !strings.Contains(s, tc.want) {
				t.Errorf("panic value %v, want it to mention %q", pp.Value, tc.want)
			}
			if n := env.Run(time.Hour); n > 2 || runs != 1 || env.Live() != 0 {
				t.Errorf("after the panic: %d more events, %d runs, Live() = %d; want at most 2, 1, 0", n, runs, env.Live())
			}
		})
	}
}

// BenchmarkRestingUsers is the closed-workload shape at scale: 10⁴
// processes that each rest 1 ms, at staggered phases, each wake a step
// with no coroutine switch. One op is one simulated millisecond, a step of
// every process.
func BenchmarkRestingUsers(b *testing.B) {
	const users = 10000
	env := NewEnv()
	defer env.Shutdown()
	for i := 0; i < users; i++ {
		phase := time.Millisecond * time.Duration(i) / users
		started := false
		env.GoStep("user", func(p *Proc) {
			if !started {
				started = true
				p.Rest(phase)
				return
			}
			p.Rest(time.Millisecond)
		})
	}
	env.Run(time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	fired := 0
	for i := 0; i < b.N; i++ {
		fired += env.Run(env.Now() + time.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/wake")
}
