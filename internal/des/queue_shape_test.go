package des

import (
	"math/rand"
	"testing"
	"time"
)

// queueShape is the push-delay mix measured on one bench workload (seed 1;
// a push's delay is at − now): the whole population is scheduled at t=0,
// and each pop schedules one successor, its delay drawn from bands.
type queueShape struct {
	name    string
	pending int
	bands   []delayBand
}

// delayBand is pct percent of the pushes, with delays uniform in [lo, hi),
// or exactly lo when hi is lo.
type delayBand struct {
	pct    int
	lo, hi time.Duration
}

var queueShapes = []queueShape{
	// paper-closed (1/4/1/4, 7000 users; DESIGN.md §7): 29% zero-delay
	// process starts and Unparks, most of the rest service and network
	// delays, and a tail of think times.
	{"closed", 7000, []delayBand{
		{29, 0, 0},
		{5, 1, 65 * time.Microsecond},
		{62, 65 * time.Microsecond, 2 * time.Millisecond},
		{2, 2 * time.Millisecond, 500 * time.Millisecond},
		{2, 500 * time.Millisecond, 60 * time.Second},
	}},
	// open-flood-1m (protected 1/2/1/2 at 142,857 req/s; 956,484 pushes,
	// under 600 pending): 46% are link hops of exactly 700 µs, and nothing
	// waits a think time.
	{"open", 600, []delayBand{
		{26, 0, 0},
		{46, 700 * time.Microsecond, 700 * time.Microsecond},
		{26, 1, 65 * time.Microsecond},
		{2, 65 * time.Microsecond, 2 * time.Millisecond},
	}},
}

// shapeRun replays a queueShape on the queue directly, with no Env: its
// entries name nothing.
type shapeRun struct {
	shape queueShape
	q     eventQueue
	rnd   *rand.Rand
	now   time.Duration
	seq   uint64
	pops  int
	last  entry
}

func newShapeRun(shape queueShape, seed int64) *shapeRun {
	s := &shapeRun{shape: shape, rnd: rand.New(rand.NewSource(seed))}
	for i := 0; i < shape.pending; i++ {
		s.push(0)
	}
	return s
}

func (s *shapeRun) delay() time.Duration {
	r := s.rnd.Intn(100)
	for _, b := range s.shape.bands {
		if r -= b.pct; r < 0 {
			if b.hi == b.lo {
				return b.lo
			}
			return b.lo + time.Duration(s.rnd.Int63n(int64(b.hi-b.lo)))
		}
	}
	panic("des: delay bands sum under 100%")
}

func (s *shapeRun) push(d time.Duration) {
	s.q.push(entry{s.now + d, s.seq << refBits}, s.now)
	s.seq++
}

// step pops the earliest entry and schedules its successor. It reports
// false if the pop broke ascending (at, seq) order.
func (s *shapeRun) step() bool {
	en, _ := s.q.peek()
	s.q.pop()
	ok := s.last.less(en) || s.pops == 0
	s.last, s.now = en, en.at
	s.pops++
	s.push(s.delay())
	return ok
}

func (s *shapeRun) run(pops int) bool {
	for i := 0; i < pops; i++ {
		if !s.step() {
			return false
		}
	}
	return true
}

// On the traffic the calendar is fitted to, a wheel is engaged whenever
// the calendar holds anything, most pops come from the lane and the wheel
// — the far heap serves under 10% of them (the t=0 pile-up once sized the
// wheel at 1 ns buckets and sent 71% of paper-closed's pops through far) —
// and re-fits stay amortized O(1) per pop. The open shape, a few hundred
// pending entries, is served by the same calendar as the closed one.
func TestQueueClosedShapeGeometry(t *testing.T) {
	for _, shape := range queueShapes {
		t.Run(shape.name, func(t *testing.T) {
			s := newShapeRun(shape, 1)
			for s.pops < 400000 {
				if !s.step() {
					t.Fatalf("pop %d broke (at, seq) order", s.pops)
				}
				if s.q.calN() > 0 && len(s.q.heads) == 0 {
					t.Fatalf("after pop %d: calendar of %d entries has no wheel", s.pops, s.q.calN())
				}
			}
			st, pops := s.q.stats, s.pops
			farShare := float64(st.farPops) / float64(pops)
			t.Logf("pops %d, far %.2f%%, rebuilds %d moving %d entries (%.3f per pop), bucket width %v, %d buckets",
				pops, 100*farShare, st.rebuilds, st.moved, float64(st.moved)/float64(pops), time.Duration(1)<<s.q.shift, len(s.q.heads))
			if farShare >= 0.10 {
				t.Errorf("far served %.1f%% of pops, want < 10%%", 100*farShare)
			}
			if st.moved > pops/4 {
				t.Errorf("rebuilds moved %d entries over %d pops, want at most one per 4 pops", st.moved, pops)
			}
			if err := s.q.audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A warmed queue allocates nothing: pushes, pops, bucket sorts and re-fits
// reuse the node arena, run, the heaps' capacity and the wheel.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	for _, shape := range queueShapes {
		t.Run(shape.name, func(t *testing.T) {
			s := newShapeRun(shape, 2)
			s.run(400000)
			before := s.q.stats.rebuilds
			ordered := true
			allocs := testing.AllocsPerRun(5, func() { ordered = s.run(100000) && ordered })
			if !ordered {
				t.Fatal("pops broke (at, seq) order")
			}
			if s.q.stats.rebuilds == before {
				t.Fatal("no re-fit ran while allocations were measured")
			}
			if allocs != 0 {
				t.Errorf("%v allocations per 100000 pops with %d re-fits, want 0", allocs, s.q.stats.rebuilds-before)
			}
		})
	}
}

// BenchmarkQueueClosedShape measures one pop and its successor's push on
// each measured traffic mix, the queue alone.
func BenchmarkQueueClosedShape(b *testing.B) {
	for _, shape := range queueShapes {
		b.Run(shape.name, func(b *testing.B) {
			s := newShapeRun(shape, 1)
			s.run(2 * shape.pending)
			b.ReportAllocs()
			b.ResetTimer()
			if !s.run(b.N) {
				b.Fatal("pops broke (at, seq) order")
			}
		})
	}
}
