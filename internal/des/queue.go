package des

import (
	"slices"
	"time"
)

// The pending-event queue. Two regimes:
//
//   - Small queues (under calendarMin physical entries) run as a plain
//     4-ary min-heap: every entry lives in `far`, pops cost O(log n) over a
//     few cache-hot levels, and no wheel memory is committed.
//   - Large queues (the 10⁵–10⁶-client trials) switch to a calendar queue:
//     a timing wheel of unsorted buckets, plus the 4-ary heap (`far`) for
//     events beyond the wheel's horizon. Pushes append to a bucket in O(1).
//     When the cursor reaches a bucket, its entries are sorted once into
//     `run` and served sequentially — most pops are a bounds check and an
//     index increment, not a root-to-leaf sift over a half-megabyte heap
//     (the hot-path cache killer the wheel exists to remove).
//
// Entries carry an arena index (entry.evi), not a pointer, so all queue
// memory is pointer-free: the garbage collector never scans the buckets and
// heap sifts need no write barriers.
//
// Determinism is structural, not incidental: entries are keyed by
// (at, seq), a total order with unique keys, and an entry is available to
// pop no later than the advance() that moves the cursor onto its bucket —
// before any entry of that bucket pops. Entries pushed into the bucket
// already under the cursor go to the `cur` heap, and peek/pop serve the
// minimum of run-head and cur-top. So the pop sequence is exactly ascending
// (at, seq) regardless of bucket geometry, and rebuilds (growing the wheel,
// falling back to heap mode) cannot perturb replay.
//
// All times are non-negative (scheduling in the past panics), so bucket
// indexes are simply uint64(at) >> shift.

// entry is one queue slot: the firing key (at, seq) inline so heap sifts
// and bucket sorts compare contiguous memory, plus the event record's arena
// index. No pointers — see the package note above.
type entry struct {
	at  time.Duration
	seq uint64
	evi uint32
}

func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

const (
	// calendarMin is the physical queue size at which the wheel engages;
	// below it the queue is a plain 4-ary heap.
	calendarMin = 4096
	// maxShift caps bucket width at 2^40 ns (~18 min) so sparse far-future
	// schedules cannot produce absurd wheel geometry.
	maxShift = 40
	// slotEstCap is the per-bucket capacity rebuild pre-carves out of one
	// block allocation, so a fresh wheel does not pay thousands of tiny
	// append regrowths to reach working capacity. Busier buckets regrow
	// individually past it.
	slotEstCap = 8
)

type eventQueue struct {
	// run is the bucket under the cursor, sorted ascending at advance()
	// time and consumed from runHead. Capacity is retained across buckets.
	run     []entry
	runHead int
	// cur holds entries pushed into the bucket under the cursor after its
	// sort — schedule-now events, sub-bucket-width gaps. Usually empty or
	// tiny; peek/pop take the minimum of run-head and cur-top.
	cur eventHeap
	// slots is the wheel: slot b&mask holds entries of exactly one bucket
	// index b in (curB, curB+len(slots)), unsorted. len(slots) is a power
	// of two (possibly 1, in which case the window is empty and the queue
	// degenerates to pure heap mode).
	slots  [][]entry
	mask   uint64
	shift  uint
	curB   uint64 // cursor bucket index
	wheelN int    // entries currently in slots
	// far holds entries past the wheel horizon. They never move to slots:
	// advance() pulls them straight into run when the cursor reaches their
	// bucket.
	far  eventHeap
	size int // total physical entries (including dead ones)
}

func (q *eventQueue) len() int { return q.size }

func (q *eventQueue) push(en entry) {
	q.size++
	b := uint64(en.at) >> q.shift
	switch {
	case b <= q.curB:
		q.cur.push(en)
	case b < q.curB+uint64(len(q.slots)):
		s := &q.slots[b&q.mask]
		*s = append(*s, en)
		q.wheelN++
	default:
		q.far.push(en)
	}
	if q.size >= calendarMin && q.size > 8*len(q.slots) {
		q.rebuild()
	}
}

// peek returns the minimum entry without removing it, advancing the cursor
// over empty buckets as needed. The mutation is order-neutral: advancing
// only makes already-pending entries poppable.
func (q *eventQueue) peek() (entry, bool) {
	if q.size*16 < len(q.slots) {
		q.rebuild() // queue shrank far below its wheel; drop to heap mode
	}
	for q.runHead == len(q.run) && len(q.cur) == 0 {
		if q.wheelN == 0 && len(q.far) == 0 {
			return entry{}, false
		}
		q.advance()
	}
	if q.runHead < len(q.run) && (len(q.cur) == 0 || q.run[q.runHead].less(q.cur[0])) {
		return q.run[q.runHead], true
	}
	return q.cur[0], true
}

// pop removes the entry peek returned.
func (q *eventQueue) pop() {
	q.size--
	if q.runHead < len(q.run) && (len(q.cur) == 0 || q.run[q.runHead].less(q.cur[0])) {
		q.runHead++
		return
	}
	q.cur.pop()
}

// advance moves the cursor to the next bucket with entries and sorts that
// bucket — from its wheel slot and from far — into run. Callers guarantee
// run and cur are exhausted and wheelN+len(far) > 0.
func (q *eventQueue) advance() {
	q.run = q.run[:0]
	q.runHead = 0
	if q.wheelN == 0 {
		// Nothing in the wheel: jump straight to the earliest far bucket
		// (heap mode, with its empty window, always takes this path).
		q.curB = uint64(q.far[0].at) >> q.shift
	} else {
		// Scan to the next occupied slot, stopping early if a far bucket
		// comes due first. Bounded by the wheel size, and amortized O(1)
		// per event when the width matches the event spacing (rebuild's
		// job).
		for {
			q.curB++
			if len(q.far) > 0 && uint64(q.far[0].at)>>q.shift <= q.curB {
				break
			}
			if len(q.slots[q.curB&q.mask]) > 0 {
				break
			}
		}
		if s := &q.slots[q.curB&q.mask]; len(*s) > 0 {
			q.run = append(q.run, *s...)
			q.wheelN -= len(*s)
			*s = (*s)[:0] // keep capacity: the slot is reused next revolution
		}
	}
	for len(q.far) > 0 && uint64(q.far[0].at)>>q.shift <= q.curB {
		q.run = append(q.run, q.far[0])
		q.far.pop()
	}
	slices.SortFunc(q.run, func(a, b entry) int {
		if a.less(b) {
			return -1
		}
		return 1 // (at, seq) keys are unique; equality cannot occur
	})
}

// each calls fn on every physical entry, dead ones included, in no
// particular order. fn must not modify the queue.
func (q *eventQueue) each(fn func(entry)) {
	for _, en := range q.run[q.runHead:] {
		fn(en)
	}
	for _, en := range q.cur {
		fn(en)
	}
	for _, s := range q.slots {
		for _, en := range s {
			fn(en)
		}
	}
	for _, en := range q.far {
		fn(en)
	}
}

// sweep drops every entry keep reports false for, in place. Geometry,
// cursor, and — critically — per-slot capacity are preserved, so the
// compaction that runs every few thousand cancels does not force the wheel
// to regrow all of its buckets (that re-allocation dominated the event-loop
// profile when compaction rebuilt the wheel). Pop order is unaffected:
// run keeps its sorted order under filtering, and heap pop order depends
// only on contents — (at, seq) is a total order with unique keys — not on
// the internal array layout.
func (q *eventQueue) sweep(keep func(entry) bool) {
	filter := func(s []entry) []entry {
		kept := s[:0]
		for _, en := range s {
			if keep(en) {
				kept = append(kept, en)
			}
		}
		return kept
	}
	// The consumed prefix run[:runHead] must not resurface: filter only the
	// unconsumed tail, compacted to the front.
	q.run = filter(append(q.run[:0], q.run[q.runHead:]...))
	q.runHead = 0
	q.cur = eventHeap(filter(q.cur))
	q.cur.init()
	for i, s := range q.slots {
		before := len(s)
		q.slots[i] = filter(s)
		q.wheelN -= before - len(q.slots[i])
	}
	q.far = eventHeap(filter(q.far))
	q.far.init()
	q.size = len(q.run) + len(q.cur) + q.wheelN + len(q.far)
}

// rebuild redistributes every entry into fresh geometry sized for the
// current population: bucket width ~ span/size (so the cursor skips few
// empty buckets) and ~8 entries per occupied bucket. Below calendarMin the
// queue collapses to pure heap mode (a single-slot wheel with an empty
// window).
func (q *eventQueue) rebuild() {
	all := make([]entry, 0, q.size)
	all = append(all, q.run[q.runHead:]...)
	all = append(all, q.cur...)
	for _, s := range q.slots {
		all = append(all, s...)
	}
	all = append(all, q.far...)

	q.size = len(all)
	q.run = q.run[:0]
	q.runHead = 0
	q.cur = q.cur[:0]
	q.far = q.far[:0]
	q.wheelN = 0
	if q.size < calendarMin {
		q.slots = q.slots[:0]
		q.slots = append(q.slots, nil) // heap mode: empty window
		q.mask = 0
		q.shift = 0
		q.curB = 0
		for _, en := range all {
			q.far.push(en)
		}
		// Everything landed in far regardless of bucket; that is exactly
		// heap mode's invariant.
		return
	}

	minAt, maxAt := all[0].at, all[0].at
	for _, en := range all[1:] {
		if en.at < minAt {
			minAt = en.at
		}
		if en.at > maxAt {
			maxAt = en.at
		}
	}
	nb := 1
	for nb < q.size/4 {
		nb *= 2
	}
	span := uint64(maxAt - minAt)
	q.shift = 0
	for q.shift < maxShift && span>>q.shift >= uint64(nb) {
		q.shift++
	}
	// One block allocation backs every slot's starting capacity; busier
	// slots break off and regrow individually.
	backing := make([]entry, nb*slotEstCap)
	q.slots = make([][]entry, nb)
	for i := range q.slots {
		q.slots[i] = backing[i*slotEstCap : i*slotEstCap : (i+1)*slotEstCap]
	}
	q.mask = uint64(nb) - 1
	q.curB = uint64(minAt) >> q.shift
	for _, en := range all {
		q.size-- // push re-counts
		q.push(en)
	}
}

// eventHeap is a 4-ary min-heap of entries ordered by (at, seq) — half the
// levels of a binary heap, with the four children of a node adjacent in
// memory, so a sift touches a fraction of the cache lines. It serves as the
// whole queue in heap mode and as the cur/far components of the calendar
// queue (see queue.go).
type eventHeap []entry

func (h *eventHeap) push(en entry) {
	*h = append(*h, en)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !en.less(hh[parent]) {
			break
		}
		hh[i] = hh[parent]
		i = parent
	}
	hh[i] = en
}

// pop removes the minimum entry; the caller has already captured h[0].
// Truncated entries are left in place — they are pointer-free and pin
// nothing.
func (h *eventHeap) pop() {
	old := *h
	last := len(old) - 1
	en := old[last]
	*h = old[:last]
	if last > 0 {
		old[0] = en
		(*h).siftDown(0)
	}
}

// init re-establishes the heap invariant over arbitrary contents in O(n);
// sweep uses it after filtering entries in place.
func (h eventHeap) init() {
	if n := len(h); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			h.siftDown(i)
		}
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	en := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].less(h[m]) {
				m = c
			}
		}
		if !h[m].less(en) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = en
}
