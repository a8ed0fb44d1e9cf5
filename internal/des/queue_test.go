package des

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refQueue is the reference model of the event queue: pending keys in a
// slice kept sorted by (at, seq).
type refQueue []refEntry

type refEntry struct {
	at  time.Duration
	seq uint64
	id  int
}

func (a refEntry) cmp(b refEntry) int {
	switch {
	case a.at < b.at, a.at == b.at && a.seq < b.seq:
		return -1
	case a == b:
		return 0
	}
	return 1
}

func (q *refQueue) insert(en refEntry) {
	i, _ := slices.BinarySearchFunc(*q, en, refEntry.cmp)
	*q = slices.Insert(*q, i, en)
}

// remove deletes en and reports whether it was pending.
func (q *refQueue) remove(en refEntry) bool {
	i, ok := slices.BinarySearchFunc(*q, en, refEntry.cmp)
	if ok {
		*q = slices.Delete(*q, i, i+1)
	}
	return ok
}

// queueDiff drives an Env with random schedules, Timer stops and re-arms
// and Run horizons, and checks every firing against refQueue. Fired
// callbacks reschedule themselves now and then, as closed-loop users do.
type queueDiff struct {
	t      *testing.T
	env    *Env
	rnd    *rand.Rand
	ref    refQueue
	seq    uint64 // mirrors Env.seq: one per At or ArmAt
	ids    int
	events []handle
	timers []*diffTimer
	fired  int
	// laneOnly counts firings that found the calendar empty and without a
	// wheel while lane entries were still pending.
	laneOnly int
}

type handle struct {
	tm  *Timer
	key refEntry
}

type diffTimer struct {
	tm  *Timer
	key refEntry
	on  bool
}

func (d *queueDiff) key(at time.Duration) refEntry {
	d.ids++
	en := refEntry{at: at, seq: d.seq, id: d.ids}
	d.seq++
	return en
}

// delay draws a scheduling offset: often zero (schedule-now ties), mostly
// short, sometimes past any wheel horizon.
func (d *queueDiff) delay() time.Duration {
	switch r := d.rnd.Intn(10); {
	case r < 2:
		return 0
	case r < 8:
		return time.Duration(d.rnd.Int63n(int64(10 * time.Millisecond)))
	case r < 9:
		return time.Duration(d.rnd.Int63n(int64(10 * time.Second)))
	default:
		return time.Duration(d.rnd.Int63n(int64(time.Hour)))
	}
}

// fire checks that the firing callback is the reference's minimum.
func (d *queueDiff) fire(id int) {
	d.t.Helper()
	if len(d.ref) == 0 {
		d.t.Fatalf("event %d fired at %v with the reference queue empty", id, d.env.Now())
	}
	want := d.ref[0]
	if want.id != id || want.at != d.env.Now() {
		d.t.Fatalf("fired event %d at %v, want event %d at %v", id, d.env.Now(), want.id, want.at)
	}
	d.ref = d.ref[1:]
	d.fired++
	if q := &d.env.q; q.calN() == 0 && len(q.heads) == 0 && q.laneN > 0 {
		d.laneOnly++
	}
}

// push schedules a stoppable event: a one-shot Timer that cancel may stop.
func (d *queueDiff) push(at time.Duration) {
	en := d.key(at)
	tm := d.env.NewTimer(d.firing(en))
	tm.ArmAt(at)
	d.ref.insert(en)
	d.events = append(d.events, handle{tm, en})
}

// follow schedules a fired event's successor with At, which nothing stops.
func (d *queueDiff) follow(at time.Duration) {
	en := d.key(at)
	d.env.At(at, d.firing(en))
	d.ref.insert(en)
}

// firing is the callback of the event en: it checks the pop order and now
// and then schedules a successor.
func (d *queueDiff) firing(en refEntry) func() {
	return func() {
		d.fire(en.id)
		if d.rnd.Intn(3) == 0 {
			d.follow(d.env.Now() + d.delay())
		}
	}
}

func (d *queueDiff) cancel() {
	if len(d.events) == 0 {
		return
	}
	i := d.rnd.Intn(len(d.events))
	h := d.events[i]
	d.events[i] = d.events[len(d.events)-1]
	d.events = d.events[:len(d.events)-1]
	pending := d.ref.remove(h.key)
	if (h.tm.key != 0) != pending {
		d.t.Fatalf("event %d: armed = %v, reference says %v", h.key.id, h.tm.key != 0, pending)
	}
	h.tm.Stop()
}

func (d *queueDiff) newTimer() *diffTimer {
	dt := &diffTimer{}
	dt.tm = d.env.NewTimer(func() {
		dt.on = false
		d.fire(dt.key.id)
	})
	return dt
}

func (d *queueDiff) rearm(dt *diffTimer) {
	if dt.on {
		d.ref.remove(dt.key)
	}
	if d.rnd.Intn(5) == 0 {
		dt.tm.Stop()
		dt.on = false
		return
	}
	at := d.env.Now() + d.delay()
	dt.key = d.key(at)
	dt.tm.ArmAt(at)
	dt.on = true
	d.ref.insert(dt.key)
}

func (d *queueDiff) run(until time.Duration) {
	d.t.Helper()
	d.env.Run(until)
	if len(d.ref) > 0 && d.ref[0].at <= until {
		d.t.Fatalf("Run(%v) returned with event %d at %v still pending", until, d.ref[0].id, d.ref[0].at)
	}
	if got := d.env.Pending(); got != len(d.ref) {
		d.t.Fatalf("Pending() = %d, reference holds %d", got, len(d.ref))
	}
	if err := d.env.Audit(); err != nil {
		d.t.Fatal(err)
	}
}

// stall advances the clock with no event due — Run(until) stops short of
// the earliest pending entry — then schedules n entries at the new Now, so
// the lane opens at a clock no pop set.
func (d *queueDiff) stall(n int) {
	d.t.Helper()
	if len(d.ref) == 0 || d.ref[0].at-d.env.Now() < 2 {
		return
	}
	d.run(d.env.Now() + (d.ref[0].at-d.env.Now())/2)
	for i := 0; i < n; i++ {
		d.push(d.env.Now())
	}
}

// drain fires every pending event and compacts away the dead entries left
// behind, so the calendar is empty, then schedules n entries at the new Now
// and fires them: they pop with only the lane holding entries.
func (d *queueDiff) drain(n int) {
	d.t.Helper()
	for len(d.ref) > 0 {
		d.run(d.ref[len(d.ref)-1].at)
	}
	d.env.compact()
	for i := 0; i < n; i++ {
		d.push(d.env.Now())
	}
	d.run(d.env.Now())
}

// The event queue pops in exact (at, seq) order through random schedules,
// zero-delay pushes, cancels, Timer re-arms, Run horizons, clock advances
// with no pop, and compactions with live lane entries, while the calendar
// drains to empty with lane entries pending and grows a wheel again. The
// first phase is the closed-workload shape: thousands of entries at t=0,
// which the lane absorbs, then spread out by their callbacks; every grow
// phase opens with a burst of thousands of spread-out entries.
func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			d := &queueDiff{t: t, env: NewEnv(), rnd: rand.New(rand.NewSource(seed))}
			for i := 0; i < 32; i++ {
				d.timers = append(d.timers, d.newTimer())
			}
			for i := 0; i < 8192; i++ {
				d.push(0)
			}
			laneSweeps, regrown := 0, 0
			for round := 0; round < 300; round++ {
				grow := (round/50)%2 == 0
				if round%100 == 99 {
					d.drain(2 + d.rnd.Intn(8))
				}
				if round%100 == 0 {
					for i := 0; i < 6144; i++ {
						d.push(d.env.Now() + 1 + time.Duration(d.rnd.Int63n(int64(10*time.Second))))
					}
				}
				for op := d.rnd.Intn(200); op > 0; op-- {
					switch r := d.rnd.Intn(10); {
					case r < 5 && grow, r < 2:
						d.push(d.env.Now() + d.delay())
					case r < 8:
						d.cancel()
					default:
						d.rearm(d.timers[d.rnd.Intn(len(d.timers))])
					}
				}
				if d.rnd.Intn(4) == 0 {
					d.stall(1 + d.rnd.Intn(8))
				}
				if d.env.q.laneN > 0 && d.rnd.Intn(8) == 0 {
					d.env.compact()
					laneSweeps++
					if err := d.env.Audit(); err != nil {
						t.Fatal(err)
					}
				}
				horizon := time.Duration(0)
				if d.rnd.Intn(4) > 0 {
					horizon = d.delay()
				}
				d.run(d.env.Now() + horizon)
				if d.laneOnly > 0 && len(d.env.q.heads) > 0 {
					regrown++
				}
			}
			d.run(2 * time.Hour * 300)
			if d.laneOnly == 0 || regrown == 0 {
				t.Errorf("%d firings with only the lane pending, %d rounds with a wheel after: the calendar did not drain to empty and grow again", d.laneOnly, regrown)
			}
			if laneSweeps == 0 {
				t.Error("no compaction ran with live lane entries")
			}
			if d.fired < 20480 {
				t.Errorf("only %d events fired", d.fired)
			}
		})
	}
}
