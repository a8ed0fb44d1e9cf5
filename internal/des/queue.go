package des

import (
	"fmt"
	"math/bits"
	"slices"
	"time"
)

// The pending-event queue. Its structure follows the traffic it serves,
// measured on the paper's closed-loop trial (DESIGN.md §7 has the table):
// about 29% of pushes are zero-delay (process starts and Unparks), most of
// the rest land microseconds to milliseconds ahead, and a few percent are
// think times seconds away.
//
//   - The lane is a FIFO of entries pushed at the current clock. Such an
//     entry carries the largest seq issued so far, and any other entry due
//     at that time was pushed earlier, so append order is pop order:
//     zero-delay pushes and pops are O(1), and the t=0 pile-up of a closed
//     workload's session starts never reaches the calendar below.
//   - The calendar holds every other entry, at any size (the open
//     workloads keep a few hundred pending): a calendar queue, a timing
//     wheel of unsorted buckets plus a heap, `far`, for entries past the
//     wheel's horizon. Pushes link into a bucket in O(1); when the cursor
//     reaches a bucket, its entries (and far's due ones) are sorted once
//     into `run` and served sequentially. An empty calendar has no wheel;
//     the first entry pushed into it fits one.
//
// Bucket width follows Brown's calendar queue (CACM 31(10), 1988): about
// three times the spacing of the entries nearest the head, not span/size,
// so a far-future tail of think times does not coarsen the buckets the
// head is served from. A width fitted at one shape of traffic (a ramp's
// start times, say) is re-fitted once the heaps — far, or the cur heap of
// pushes into the bucket under the cursor — serve more pops than the
// calendar holds: a re-fit costs O(size), so it stays amortized O(1) per
// pop.
//
// The lane and the wheel's buckets are intrusive singly linked lists over
// one chunked node arena with a free list, so the wheel costs 4 bytes per
// bucket plus one 24-byte node per entry, and rebuilds relink nodes in
// place: after warm-up nothing in the queue allocates, re-fits included.
// An entry names what it wakes by index (entry.key's ref), not by pointer,
// so all queue memory is pointer-free: the garbage collector never scans
// it and heap sifts need no write barriers.
//
// Determinism is structural, not incidental: entries are keyed by
// (at, seq), a total order with unique keys. A calendar entry is available
// to pop no later than the advance() that moves the cursor onto its
// bucket, before any entry of that bucket pops; entries pushed into the
// bucket already under the cursor go to the `cur` heap; peek serves the
// minimum of lane head, run head and cur top. So the pop sequence is
// exactly ascending (at, seq) regardless of geometry, and rebuilds
// (growing, re-fitting or dropping the wheel) cannot perturb replay.
//
// All times are non-negative (scheduling in the past panics), so bucket
// indexes are simply uint64(at) >> shift.

// entry is one queue slot, 16 bytes: the firing time and one key,
// seq<<refBits | ref. seq is the schedule's place in the Env's order, and
// ref names what fires, a process or a Timer (see Env.key), so no record
// stands between an entry and its payload. Seqs are unique, so comparing
// (at, key) is exactly comparing (at, seq), and heap sifts and bucket
// sorts compare contiguous memory. No pointers — see the package note
// above.
type entry struct {
	at  time.Duration
	key uint64
}

// refBits is the width of an entry key's ref; the seq above it has the
// other 40 bits.
const refBits = 24

func (en entry) ref() uint32 { return uint32(en.key) & (1<<refBits - 1) }

func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// node is an entry in a lane or bucket list, with the index of the next
// node (0 ends the list).
type node struct {
	entry
	next uint32
}

const (
	// maxShift caps bucket width at 2^40 ns (~18 min) so sparse far-future
	// schedules cannot produce absurd wheel geometry.
	maxShift = 40
	// headSample is how many of the earliest calendar entries a rebuild
	// measures the spacing of (Brown samples about 25).
	headSample = 32
	// nodeChunk is the node arena's chunk size; a power of two.
	nodeChunk = 256
)

// Sources peek can find the minimum in; pop removes from the one the
// preceding peek chose.
const (
	fromLane uint8 = iota
	fromRun
	fromCur
)

type eventQueue struct {
	// The lane: a FIFO node list of entries at laneAt, the clock when they
	// were pushed.
	laneHead, laneTail uint32
	laneN              int
	laneAt             time.Duration

	// run is the bucket under the cursor, sorted ascending at advance()
	// time and consumed from runHead. Capacity is retained across buckets.
	run     []entry
	runHead int
	// cur holds entries pushed into the bucket under the cursor after its
	// sort — sub-bucket-width gaps. Usually empty or tiny.
	cur eventHeap
	// heads is the wheel: heads[b&mask] is the node list of bucket b, for
	// b in (curB, curB+len(heads)), unsorted. len(heads) is a power of two,
	// or 0 while the calendar is empty.
	heads  []uint32
	mask   uint64
	shift  uint
	curB   uint64 // cursor bucket index
	wheelN int    // entries currently in the wheel's lists
	// far holds entries past the wheel horizon. They never move to the
	// wheel: advance() pulls them straight into run when the cursor
	// reaches their bucket.
	far  eventHeap
	size int // total physical entries (including dead ones)

	src uint8 // where the last peek found the minimum
	// heapPops counts pops the heaps served (cur pops and far pulls) since
	// the last rebuild; past the calendar's size it triggers a re-fit.
	heapPops int

	// nodes is the arena behind the lane and bucket lists, nodeChunk
	// nodes per chunk. Index 0 is never handed out, so 0 ends a list and
	// the zero eventQueue is valid. free heads the list of released nodes.
	nodes [][]node
	nodeN uint32
	free  uint32

	stats queueStats
}

// queueStats are cumulative counters white-box tests check the geometry
// against.
type queueStats struct {
	farPops  int // entries advance pulled from far
	rebuilds int // rebuilds that changed the geometry
	moved    int // calendar entries those rebuilds redistributed
}

func (q *eventQueue) len() int { return q.size }

// reset empties q and keeps its memory — the node chunks and the run, cur,
// heads and far arrays — for the next Env. A reset queue behaves exactly as
// a new one: every decision reads lengths, never capacities, node indexes
// start over at 1, and heads past its length stay zero, as rebuild expects.
func (q *eventQueue) reset() {
	clear(q.heads)
	*q = eventQueue{run: q.run[:0], cur: q.cur[:0], heads: q.heads[:0], far: q.far[:0], nodes: q.nodes}
}

// calN is the calendar's population: every entry not in the lane.
func (q *eventQueue) calN() int { return q.size - q.laneN }

func (q *eventQueue) node(i uint32) *node {
	return &q.nodes[i/nodeChunk][i%nodeChunk]
}

// newNode stores en, followed by next, in a node from the free list, or a
// fresh one, and returns its index.
func (q *eventQueue) newNode(en entry, next uint32) uint32 {
	i := q.free
	if i != 0 {
		q.free = q.node(i).next
	} else {
		if q.nodeN == 0 {
			q.nodeN = 1
		}
		if int(q.nodeN/nodeChunk) == len(q.nodes) {
			q.nodes = append(q.nodes, make([]node, nodeChunk))
		}
		i = q.nodeN
		q.nodeN++
	}
	*q.node(i) = node{en, next}
	return i
}

func (q *eventQueue) freeNode(i uint32) {
	q.node(i).next = q.free
	q.free = i
}

// link adds a calendar entry to bucket b's list.
func (q *eventQueue) link(en entry, b uint64) {
	s := &q.heads[b&q.mask]
	*s = q.newNode(en, *s)
	q.wheelN++
}

// push adds en. now is the scheduler's clock: an entry due now joins the
// lane.
func (q *eventQueue) push(en entry, now time.Duration) {
	q.size++
	if en.at == now {
		i := q.newNode(en, 0)
		if q.laneN == 0 {
			q.laneHead = i
		} else {
			q.node(q.laneTail).next = i
		}
		q.laneTail = i
		q.laneN++
		q.laneAt = now
		return
	}
	b := uint64(en.at) >> q.shift
	switch {
	case b <= q.curB:
		q.cur.push(en)
	case b < q.curB+uint64(len(q.heads)):
		q.link(en, b)
	default:
		q.far.push(en) // with no wheel, too: the rebuild below fits one
	}
	if q.calN() > 8*len(q.heads) {
		q.rebuild()
	}
}

// peek returns the minimum entry without removing it, advancing the cursor
// over empty buckets as needed. The mutation is order-neutral: advancing
// only makes already-pending entries poppable. A pop must follow before
// the queue changes.
func (q *eventQueue) peek() (entry, bool) {
	if n := q.calN(); n*16 < len(q.heads) || q.heapPops > n {
		q.rebuild() // shrunk far below the wheel, or the wheel misfits
	}
	for q.runHead == len(q.run) && len(q.cur) == 0 {
		// With run and cur empty, the lane (if any) holds the minimum: a
		// calendar entry due at the lane's time was pushed before the clock
		// got there, and the clock got there either by a Run horizon, which
		// popped it, or by popping from its bucket, which leaves it in run
		// or cur.
		if q.laneN > 0 {
			q.src = fromLane
			return q.node(q.laneHead).entry, true
		}
		if q.wheelN == 0 && len(q.far) == 0 {
			return entry{}, false
		}
		q.advance()
	}
	min, src := entry{}, fromCur
	if len(q.cur) > 0 {
		min = q.cur[0]
	}
	if q.runHead < len(q.run) && (len(q.cur) == 0 || q.run[q.runHead].less(min)) {
		min, src = q.run[q.runHead], fromRun
	}
	if q.laneN > 0 && q.node(q.laneHead).less(min) {
		min, src = q.node(q.laneHead).entry, fromLane
	}
	q.src = src
	return min, true
}

// pop removes the entry the preceding peek returned.
func (q *eventQueue) pop() {
	q.size--
	switch q.src {
	case fromLane:
		i := q.laneHead
		q.laneHead = q.node(i).next
		q.laneN--
		q.freeNode(i)
	case fromRun:
		q.runHead++
	default:
		q.cur.pop()
		q.heapPops++
	}
}

// advance moves the cursor to the next bucket with entries and sorts that
// bucket — from its wheel list and from far — into run. Callers guarantee
// run and cur are exhausted and wheelN+len(far) > 0.
func (q *eventQueue) advance() {
	q.run = q.run[:0]
	q.runHead = 0
	if q.wheelN == 0 {
		// Nothing in the wheel: jump straight to the earliest far bucket.
		q.curB = uint64(q.far[0].at) >> q.shift
	} else {
		// Scan to the next occupied bucket, stopping early if a far bucket
		// comes due first. Bounded by the wheel size, and amortized O(1)
		// per event when the width matches the event spacing (rebuild's
		// job).
		for {
			q.curB++
			if len(q.far) > 0 && uint64(q.far[0].at)>>q.shift <= q.curB {
				break
			}
			if q.heads[q.curB&q.mask] != 0 {
				break
			}
		}
		s := &q.heads[q.curB&q.mask]
		for i := *s; i != 0; {
			nd := q.node(i)
			next := nd.next
			q.run = append(q.run, nd.entry)
			q.wheelN--
			q.freeNode(i)
			i = next
		}
		*s = 0
	}
	for len(q.far) > 0 && uint64(q.far[0].at)>>q.shift <= q.curB {
		q.run = append(q.run, q.far[0])
		q.far.pop()
		q.heapPops++
		q.stats.farPops++
	}
	sortEntries(q.run)
}

// sortEntries sorts s ascending by (at, seq). A bucket holds a handful of
// entries, where an insertion sort with the comparison inlined beats
// slices.SortFunc's indirect calls.
func sortEntries(s []entry) {
	if len(s) > 12 {
		slices.SortFunc(s, func(a, b entry) int {
			if a.less(b) {
				return -1
			}
			return 1 // keys are unique; equality cannot occur
		})
		return
	}
	for i := 1; i < len(s); i++ {
		en, j := s[i], i
		for ; j > 0 && en.less(s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = en
	}
}

// eachCalendar calls fn on every physical calendar entry, dead ones
// included, in no particular order. fn must not modify the queue.
func (q *eventQueue) eachCalendar(fn func(entry)) {
	for _, en := range q.run[q.runHead:] {
		fn(en)
	}
	for _, en := range q.cur {
		fn(en)
	}
	for _, h := range q.heads {
		q.eachList(h, fn)
	}
	for _, en := range q.far {
		fn(en)
	}
}

func (q *eventQueue) eachList(i uint32, fn func(entry)) {
	for ; i != 0; i = q.node(i).next {
		fn(q.node(i).entry)
	}
}

// filterList drops the nodes keep reports false for from the list at head,
// preserving order, and returns the new head, tail and length.
func (q *eventQueue) filterList(head uint32, keep func(entry) bool) (h, t uint32, n int) {
	for i := head; i != 0; {
		nd := q.node(i)
		next := nd.next
		if keep(nd.entry) {
			if t == 0 {
				h = i
			} else {
				q.node(t).next = i
			}
			t = i
			n++
		} else {
			q.freeNode(i)
		}
		i = next
	}
	if t != 0 {
		q.node(t).next = 0
	}
	return h, t, n
}

// sweep drops every entry keep reports false for, in place. Geometry,
// cursor and lane order are preserved, so the compaction that runs every
// few thousand cancels costs one pass and no allocation. Pop order is
// unaffected: run keeps its sorted order under filtering, and heap pop
// order depends only on contents — (at, seq) is a total order with unique
// keys — not on the internal array layout.
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
	q.laneHead, q.laneTail, q.laneN = q.filterList(q.laneHead, keep)
	// The consumed prefix run[:runHead] must not resurface: filter only the
	// unconsumed tail, compacted to the front.
	q.run = filter(append(q.run[:0], q.run[q.runHead:]...))
	q.runHead = 0
	q.cur = eventHeap(filter(q.cur))
	q.cur.init()
	q.wheelN = 0
	for b, h := range q.heads {
		var n int
		q.heads[b], _, n = q.filterList(h, keep)
		q.wheelN += n
	}
	q.far = eventHeap(filter(q.far))
	q.far.init()
	q.size = q.laneN + len(q.run) + len(q.cur) + q.wheelN + len(q.far)
}

// fit samples the calendar for its geometry: the earliest entry's time,
// and the bucket shift for a width of about three times the spacing of the
// headSample earliest entries. As in Brown's calendar queue, gaps wider
// than twice the sample's mean gap are left out of the spacing, so one
// outlier does not widen every bucket. A head with no spacing at all
// (entries piled up at one instant) falls back to the calendar's mean
// spacing.
func (q *eventQueue) fit() (minAt time.Duration, shift uint) {
	// The headSample earliest times, kept sorted while scanning.
	var sample [headSample]time.Duration
	s := sample[:0]
	var maxAt time.Duration
	q.eachCalendar(func(en entry) {
		maxAt = max(maxAt, en.at)
		if len(s) == cap(s) {
			if en.at >= s[len(s)-1] {
				return
			}
			s = s[:len(s)-1]
		}
		i, _ := slices.BinarySearch(s, en.at)
		s = slices.Insert(s, i, en.at)
	})
	var gap uint64
	if m := len(s); m > 1 {
		mean := uint64(s[m-1]-s[0]) / uint64(m-1)
		var sum, n uint64
		for i := 1; i < m; i++ {
			if g := uint64(s[i] - s[i-1]); g <= 2*mean {
				sum += g
				n++
			}
		}
		gap = sum / n
	}
	if gap == 0 {
		gap = uint64(maxAt-s[0]) / uint64(q.calN())
	}
	if w := 3 * gap; w > 0 {
		shift = min(uint(bits.Len64(w))-1, maxShift)
	}
	return s[0], shift
}

// rebuild re-fits the calendar to its population: the width from fit and
// one bucket per one to two entries, or no wheel at all for an empty
// calendar. It returns without moving anything if that is the geometry
// already in place. Every entry is moved in place — wheel nodes are
// relinked, run and cur are folded into far, far is filtered into the new
// window — so a rebuild allocates only when the wheel, a heap or the node
// arena outgrows its largest size so far. The lane is untouched.
func (q *eventQueue) rebuild() {
	q.heapPops = 0
	n := q.calN()
	nb, shift, minAt := 0, uint(0), time.Duration(0)
	if n > 0 {
		nb = 1
		for nb < n/2 {
			nb *= 2
		}
		minAt, shift = q.fit()
		if nb == len(q.heads) && shift == q.shift {
			return
		}
	}
	q.stats.rebuilds++
	q.stats.moved += n

	// Fold run and cur into far, which stays an unordered bag until the
	// re-heapify below, and detach the wheel's lists into one chain.
	q.far.grow(len(q.run) - q.runHead + len(q.cur))
	q.far = append(q.far, q.run[q.runHead:]...)
	q.far = append(q.far, q.cur...)
	q.run, q.runHead, q.cur = q.run[:0], 0, q.cur[:0]
	var chain uint32
	for b, i := range q.heads {
		for i != 0 {
			nd := q.node(i)
			next := nd.next
			nd.next = chain
			chain = i
			i = next
		}
		q.heads[b] = 0
	}
	q.wheelN = 0
	if cap(q.heads) < nb {
		q.heads = make([]uint32, nb)
	}
	q.heads = q.heads[:nb]
	q.shift, q.mask, q.curB = shift, uint64(nb)-1, uint64(minAt)>>shift

	// place files en by bucket: the cursor's bucket into cur, the window
	// into the wheel; it reports false for entries past the horizon.
	place := func(en entry) bool {
		b := uint64(en.at) >> q.shift
		switch {
		case b <= q.curB:
			q.cur.add(en)
		case b < q.curB+uint64(nb):
			q.link(en, b)
		default:
			return false
		}
		return true
	}
	for i := chain; i != 0; {
		// Free the node first: link takes it straight back off the free
		// list, so relinking does not grow the arena.
		nd := *q.node(i)
		q.freeNode(i)
		i = nd.next
		if !place(nd.entry) {
			q.far.add(nd.entry)
		}
	}
	kept := q.far[:0]
	for _, en := range q.far {
		if !place(en) {
			kept = append(kept, en)
		}
	}
	q.far = kept
	q.far.init()
	q.cur.init()
}

// audit checks the queue's bookkeeping: the lane's length and clock, the
// wheel's count and windows, and that the components sum to size.
func (q *eventQueue) audit() error {
	n := 0
	for i := q.laneHead; i != 0; i = q.node(i).next {
		if at := q.node(i).at; at != q.laneAt {
			return fmt.Errorf("des: lane entry at %v, lane clock %v", at, q.laneAt)
		}
		n++
	}
	if n != q.laneN {
		return fmt.Errorf("des: lane holds %d entries, counted %d", n, q.laneN)
	}
	n = 0
	for s, i := range q.heads {
		for ; i != 0; i = q.node(i).next {
			b := uint64(q.node(i).at) >> q.shift
			if b&q.mask != uint64(s) || b <= q.curB || b >= q.curB+uint64(len(q.heads)) {
				return fmt.Errorf("des: wheel slot %d holds bucket %d outside window (%d, %d)",
					s, b, q.curB, q.curB+uint64(len(q.heads)))
			}
			n++
		}
	}
	if n != q.wheelN {
		return fmt.Errorf("des: wheel holds %d entries, counted %d", n, q.wheelN)
	}
	if got := q.laneN + len(q.run) - q.runHead + len(q.cur) + q.wheelN + len(q.far); got != q.size {
		return fmt.Errorf("des: queue components hold %d entries, size %d", got, q.size)
	}
	return nil
}

// eventHeap is a 4-ary min-heap of entries ordered by (at, seq) — half the
// levels of a binary heap, with the four children of a node adjacent in
// memory, so a sift touches a fraction of the cache lines. It holds the
// calendar's cur and far components.
type eventHeap []entry

// grow makes room for n more entries, doubling the capacity where append
// would take 1.25× steps: at 10⁵ entries that chain of copies was most of
// the queue's allocation.
func (h *eventHeap) grow(n int) {
	if need := len(*h) + n; need > cap(*h) {
		g := make(eventHeap, len(*h), max(need, 2*cap(*h), 64))
		copy(g, *h)
		*h = g
	}
}

// add appends en without restoring the heap order; init must follow.
func (h *eventHeap) add(en entry) {
	h.grow(1)
	*h = append(*h, en)
}

func (h *eventHeap) push(en entry) {
	h.add(en)
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
// sweep and rebuild use it after moving entries in bulk.
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
