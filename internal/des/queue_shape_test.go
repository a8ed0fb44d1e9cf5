package des

import (
	"math/rand"
	"testing"
	"time"
)

// closedShape replays the push-delay mix measured on the paper's
// closed-loop trial (the bench's paper-closed workload: 1/4/1/4, 7000
// users; DESIGN.md §7): the whole population is scheduled at t=0, and each
// pop schedules one successor — 29% zero-delay, 5% under 65 µs, 62% between
// 65 µs and 2 ms, 2% up to 0.5 s, and 2% think times of 0.5–60 s. It
// drives the queue directly, with no event records.
type closedShape struct {
	q    eventQueue
	rnd  *rand.Rand
	now  time.Duration
	seq  uint64
	pops int
	last entry
}

const closedUsers = 7000

func newClosedShape(seed int64) *closedShape {
	s := &closedShape{rnd: rand.New(rand.NewSource(seed))}
	for i := 0; i < closedUsers; i++ {
		s.push(0)
	}
	return s
}

func (s *closedShape) between(lo, hi time.Duration) time.Duration {
	return lo + time.Duration(s.rnd.Int63n(int64(hi-lo)))
}

func (s *closedShape) delay() time.Duration {
	switch r := s.rnd.Intn(100); {
	case r < 29:
		return 0
	case r < 34:
		return s.between(1, 65*time.Microsecond)
	case r < 96:
		return s.between(65*time.Microsecond, 2*time.Millisecond)
	case r < 98:
		return s.between(2*time.Millisecond, 500*time.Millisecond)
	default:
		return s.between(500*time.Millisecond, 60*time.Second)
	}
}

func (s *closedShape) push(d time.Duration) {
	s.q.push(entry{at: s.now + d, seq: s.seq}, s.now)
	s.seq++
}

// step pops the earliest entry and schedules its successor. It reports
// false if the pop broke ascending (at, seq) order.
func (s *closedShape) step() bool {
	en, _ := s.q.peek()
	s.q.pop()
	ok := s.last.less(en) || s.pops == 0
	s.last, s.now = en, en.at
	s.pops++
	s.push(s.delay())
	return ok
}

func (s *closedShape) run(pops int) bool {
	for i := 0; i < pops; i++ {
		if !s.step() {
			return false
		}
	}
	return true
}

// On the closed-loop traffic the calendar is fitted to, most pops come
// from the lane and the wheel: the far heap serves under 10% of them (the
// t=0 pile-up once sized the wheel at 1 ns buckets and sent 71% of pops
// through far), and re-fits stay amortized O(1) per pop.
func TestQueueClosedShapeGeometry(t *testing.T) {
	s := newClosedShape(1)
	if !s.run(400000) {
		t.Fatalf("pop %d broke (at, seq) order", s.pops)
	}
	st, pops := s.q.stats, s.pops
	if len(s.q.heads) == 0 {
		t.Fatalf("calendar of %d entries still in heap mode", s.q.calN())
	}
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
}

// A warmed queue allocates nothing: pushes, pops, bucket sorts and re-fits
// reuse the node arena, run, the heaps' capacity and the wheel.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	s := newClosedShape(2)
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
}

// BenchmarkQueueClosedShape measures one pop and its successor's push on
// the closed-loop traffic mix, the queue alone.
func BenchmarkQueueClosedShape(b *testing.B) {
	s := newClosedShape(1)
	s.run(2 * closedUsers)
	b.ReportAllocs()
	b.ResetTimer()
	if !s.run(b.N) {
		b.Fatal("pops broke (at, seq) order")
	}
}
