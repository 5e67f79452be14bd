package des

import (
	"math"
	"math/bits"
)

// calendarQueue is a bucketed timing wheel (a calendar queue in the sense
// of Brown, CACM 1988) over the scheduler's (time, seq, slot) entries. For
// the roughly stationary event-time distributions both simulators produce —
// exponential inter-event gaps at an aggregate rate that changes slowly —
// enqueue and dequeue are O(1) amortized, versus O(log n) for a heap.
//
// Storage is allocation-free in steady state: entries live in per-slot
// parallel arrays that grow in lockstep with the scheduler's slab, and each
// bucket is a singly-linked chain threaded through the next array, so a
// push is three array writes and never allocates. (The previous
// slice-of-slices layout re-allocated every bucket after each retune —
// ~0.2 allocations per event at 100k peers.)
//
// Dequeue drains whole calendar days at a time: the first non-empty day's
// entries are unlinked into a reusable buffer, sorted once by (time, seq),
// and served by cursor, amortizing the bucket walk and min-scan across the
// day's whole batch. A rare push landing inside the day being drained is
// spliced into the buffer at its sorted position, so the delivered order is
// exactly ascending (time, seq); the Scheduler tests check it against a
// sorted oracle. Bucket membership is computed once per entry as an integer
// day number, never re-derived from float arithmetic, so window
// qualification cannot drift across laps.
//
// The wheel is rebuilt when its density leaves the sweet spot — capacity
// doubles or halves — and when its days stop fitting the front of the
// queue: a drained day far past the target size, or a full lap without an
// entry (a sparse queue, or a gap wider than the days expect). Each rebuild
// re-estimates the width so that a day at the front holds a few entries,
// and jumps the calendar to the earliest pending day.
type calendarQueue struct {
	// Per-slot entry storage, parallel to the scheduler slab (index is
	// slot-1). One struct per slot rather than parallel arrays: a push or
	// drain touches a single cache line per entry instead of four, which
	// is what the million-peer working set notices. next threads each
	// bucket's chain; 0 terminates.
	slots []calSlot

	// heads holds each bucket's chain head slot (0 marks an empty bucket;
	// slots are 1-based).
	heads []int32
	mask  int64
	width float64
	// invWidth caches 1/width for the day computation: multiplication is
	// monotone in t just like division, and every day number (push and
	// rebuild alike) flows through the same dayOf, so bucket membership
	// and window qualification stay mutually consistent.
	invWidth float64
	count    int
	// curDay is the absolute day number (floor(time/width), unmasked) the
	// dequeue scan resumes from. All pending entries have day >= curDay,
	// except those already pulled into the drain buffer.
	curDay int64

	// drain is the batched front: every pending entry with day <= drainDay,
	// ascending by (time, seq); pos is the serve cursor. While the drain is
	// active (pos < len(drain)), curDay == drainDay and every chained entry
	// has day > drainDay.
	drain    []calEntry
	pos      int
	drainDay int64
	// warmPos is the drain index the scheduler's slab read-ahead has
	// reached (a hint, like nwSlot below).
	warmPos int
	// scratch is the reusable retune gather buffer.
	scratch []calEntry

	// dayTarget is the front-day size the last retune aimed for. served
	// counts pops since then, and wide marks a drained day far past the
	// target: the next peek retunes, once served has paid for the
	// rebuild.
	dayTarget int
	served    int
	wide      bool

	// nwSlot cursors a one-hop-per-pop pre-walk of the next day's bucket
	// chain: drainDayInto's pointer chase is a serial cache-miss chain,
	// so touching one link per pop while the current batch serves
	// overlaps those misses with event work. warm sinks the loads; both
	// are hints — a stale cursor (splice, retune, recycled slot) just
	// warms a harmless line.
	nwSlot int32
	warm   uint32
}

// calEntry is one drained pending event.
type calEntry struct {
	time float64
	seq  uint64
	slot int32
}

// calSlot is one chained pending event, indexed by scheduler slot-1.
type calSlot struct {
	time float64
	seq  uint64
	day  int64
	next int32
}

func (a calEntry) beforeEntry(bTime float64, bSeq uint64) bool {
	if a.time != bTime {
		return a.time < bTime
	}
	return a.seq < bSeq
}

const (
	calMinBuckets = 16
	// The wheel is retuned toward calTargetOccupancy entries per bucket; a
	// push past calGrowOccupancy or a removal below 1/4 triggers it. With
	// batched day draining, a handful of entries per day amortizes the
	// bucket walk and the one sort across the whole batch; occupancies much
	// past that lengthen the splice search for pushes landing in the day
	// being drained.
	calTargetOccupancy = 4
	calGrowOccupancy   = 8
	// A retune sizes the front day to hold dayTarget entries, between
	// calTargetOccupancy and calMaxDayTarget (see retune); a drained day
	// past calWideFactor times the target marks the width stale.
	calMaxDayTarget = 128
	calWideFactor   = 16
	// calFrontSample is how many of the earliest pending times a retune
	// estimates the front density from.
	calFrontSample = 32
	// calMaxDay clamps day numbers for events absurdly far in the future
	// (e.g. time/width overflowing int64). Clamping preserves the
	// monotonicity of time -> day, which is all correctness needs; such
	// events are simply found by the earliest-day fallback scan.
	calMaxDay = math.MaxInt64 / 4
)

func newCalendarQueue() calendarQueue {
	return calendarQueue{
		heads:     make([]int32, calMinBuckets),
		mask:      calMinBuckets - 1,
		dayTarget: calTargetOccupancy,
		width:     1,
		invWidth:  1,
	}
}

// dayOf maps an event time to its absolute day under the current width.
func (q *calendarQueue) dayOf(t float64) int64 {
	d := t * q.invWidth
	if d >= calMaxDay {
		return calMaxDay
	}
	return int64(d)
}

// draining reports whether the day batch still holds unserved entries.
func (q *calendarQueue) draining() bool { return q.pos < len(q.drain) }

// push inserts an entry.
func (q *calendarQueue) push(t float64, seq uint64, slot int32) {
	i := int(slot) - 1
	if i >= len(q.slots) {
		// Slots are handed out by the scheduler slab in order, so this
		// appends in lockstep (amortized, no per-push allocation).
		q.slots = append(q.slots, calSlot{})
	}
	day := q.dayOf(t)
	if q.draining() && day <= q.drainDay {
		// The entry belongs to the day currently being served: splice it
		// into the batch at its sorted position. Rare — a day is a sliver
		// of the pending span — so the memmove amortizes to nothing.
		if q.pos >= len(q.drain)-q.pos {
			// The served prefix is at least as long as the remainder:
			// reclaim it first, so a day that keeps taking splices holds
			// about twice its unserved entries rather than every entry it
			// ever served. The pops that built the prefix pay for the copy.
			n := copy(q.drain, q.drain[q.pos:])
			q.drain = q.drain[:n]
			q.warmPos = max(q.warmPos-q.pos, 0)
			q.pos = 0
		}
		lo, hi := q.pos, len(q.drain)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if q.drain[mid].beforeEntry(t, seq) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		q.drain = append(q.drain, calEntry{})
		copy(q.drain[lo+1:], q.drain[lo:])
		q.drain[lo] = calEntry{time: t, seq: seq, slot: slot}
		q.count++
		return
	}
	b := day & q.mask
	q.slots[i] = calSlot{time: t, seq: seq, day: day, next: q.heads[b]}
	q.heads[b] = slot
	q.count++
	if day < q.curDay {
		// Scheduled behind the calendar's scan position (the scan had
		// advanced toward a far-future minimum): rewind to it.
		q.curDay = day
	}
	if q.count > calGrowOccupancy*len(q.heads) {
		q.retune()
	}
}

// peek locates the minimum (time, seq) entry without removing it, batching
// its whole calendar day into the drain buffer on the way.
func (q *calendarQueue) peek() (calEntry, bool) {
	if q.draining() {
		return q.drain[q.pos], true
	}
	if q.count == 0 {
		return calEntry{}, false
	}
	if q.wide {
		q.retune()
	}
	// Scan one lap of the wheel from the current day forward and drain the
	// first day that owns entries. Chains mix laps, so each is filtered by
	// the exact day number.
	nb := int64(len(q.heads))
	for i := int64(0); i < nb; i++ {
		day := q.curDay + i
		if q.drainDayInto(day) {
			return q.drain[0], true
		}
	}
	// A full lap without an entry: the days are too narrow for the gap
	// ahead, or the queue is sparse. A retune costs about what the lap
	// did, re-estimates the width from the new front, and moves the
	// calendar to the earliest pending day.
	q.retune()
	if !q.drainDayInto(q.curDay) {
		return calEntry{}, false // unreachable while count > 0
	}
	return q.drain[0], true
}

// drainDayInto unlinks every entry of the given absolute day into the drain
// buffer, sorted by (time, seq), and reports whether any were found.
func (q *calendarQueue) drainDayInto(day int64) bool {
	q.drain = q.drain[:0]
	q.pos = 0
	q.warmPos = 0
	prev := int32(0) // 0 means "the bucket head"
	b := day & q.mask
	for s := q.heads[b]; s != 0; {
		sl := &q.slots[s-1]
		nxt := sl.next
		if sl.day == day {
			q.drain = append(q.drain, calEntry{time: sl.time, seq: sl.seq, slot: s})
			if prev == 0 {
				q.heads[b] = nxt
			} else {
				q.slots[prev-1].next = nxt
			}
		} else {
			prev = s
		}
		s = nxt
	}
	if len(q.drain) == 0 {
		return false
	}
	q.sortDrain()
	if len(q.drain) > calWideFactor*q.dayTarget && q.served >= q.count {
		q.wide = true
	}
	q.curDay = day
	q.drainDay = day
	q.nwSlot = q.heads[(day+1)&q.mask]
	return true
}

// prewalkStep advances the next-day chain pre-walk by one link.
func (q *calendarQueue) prewalkStep() {
	if s := q.nwSlot; s != 0 {
		nxt := q.slots[s-1].next
		q.warm += uint32(nxt)
		q.nwSlot = nxt
	}
}

// sortDrain orders the batch ascending by (time, seq). Day batches are a
// handful of entries at the target occupancy, so a binary-insertion sort
// handles them directly; big batches (coarse widths, transient densities
// between retunes) go through a specialized introsort whose comparisons
// inline — the generic sorter's func-valued comparator was a top entry in
// the sharded market profile, charged once per comparison across millions
// of drained events. (time, seq) keys are unique, so every correct sort
// yields the same byte-identical delivery order.
func (q *calendarQueue) sortDrain() {
	d := q.drain
	if len(d) > 32 {
		quickDrain(d, 2*bits.Len(uint(len(d))))
		return
	}
	insertionDrain(d)
}

// insertionDrain is the small-batch sort: binary search for the insertion
// point, one memmove per element.
func insertionDrain(d []calEntry) {
	for i := 1; i < len(d); i++ {
		e := d[i]
		j := i
		for j > 0 && e.beforeEntry(d[j-1].time, d[j-1].seq) {
			d[j] = d[j-1]
			j--
		}
		d[j] = e
	}
}

// quickDrain is a median-of-three quicksort over calEntry with inline
// (time, seq) comparisons, recursing into the smaller partition and looping
// on the larger. limit bounds the quicksort depth; an adversarial pattern
// that exhausts it falls back to heapsort, keeping the worst case
// O(n log n) like the generic sorter it replaces.
func quickDrain(d []calEntry, limit int) {
	for len(d) > 32 {
		if limit == 0 {
			heapDrain(d)
			return
		}
		limit--
		p := partitionDrain(d)
		if p < len(d)-p-1 {
			quickDrain(d[:p], limit)
			d = d[p+1:]
		} else {
			quickDrain(d[p+1:], limit)
			d = d[:p]
		}
	}
	insertionDrain(d)
}

// partitionDrain Hoare-partitions d around the median of its first, middle
// and last entries, returning the pivot's final index.
func partitionDrain(d []calEntry) int {
	m := len(d) / 2
	hi := len(d) - 1
	if d[m].beforeEntry(d[0].time, d[0].seq) {
		d[0], d[m] = d[m], d[0]
	}
	if d[hi].beforeEntry(d[0].time, d[0].seq) {
		d[0], d[hi] = d[hi], d[0]
	}
	if d[hi].beforeEntry(d[m].time, d[m].seq) {
		d[m], d[hi] = d[hi], d[m]
	}
	d[0], d[m] = d[m], d[0]
	pt, ps := d[0].time, d[0].seq
	i, j := 1, hi
	for {
		for i <= j && d[i].beforeEntry(pt, ps) {
			i++
		}
		for i <= j && !d[j].beforeEntry(pt, ps) {
			j--
		}
		if i >= j {
			break
		}
		d[i], d[j] = d[j], d[i]
		i++
		j--
	}
	d[0], d[j] = d[j], d[0]
	return j
}

// heapDrain is the depth-limit fallback: in-place heapsort with the same
// inline comparisons.
func heapDrain(d []calEntry) {
	n := len(d)
	for root := n/2 - 1; root >= 0; root-- {
		siftDrain(d, root, n)
	}
	for end := n - 1; end > 0; end-- {
		d[0], d[end] = d[end], d[0]
		siftDrain(d, 0, end)
	}
}

func siftDrain(d []calEntry, root, end int) {
	for {
		c := 2*root + 1
		if c >= end {
			return
		}
		if c+1 < end && d[c].beforeEntry(d[c+1].time, d[c+1].seq) {
			c++
		}
		if !d[root].beforeEntry(d[c].time, d[c].seq) {
			return
		}
		d[root], d[c] = d[c], d[root]
		root = c
	}
}

// pop deletes the entry located by the immediately preceding peek.
func (q *calendarQueue) pop() {
	q.served++
	q.pos++
	q.count--
	if 4*q.count < len(q.heads) && len(q.heads) > calMinBuckets {
		q.retune()
	}
}

// retune rebuilds the wheel at the target occupancy with a re-estimated
// width, redistributing every entry — the drain remainder included, since
// the new width redraws day boundaries. Amortized over the pushes/pops
// that triggered it, this is O(1).
//
// The width is sized at the front of the queue, where every pop and every
// push into the draining day lands: from the spacing of the earliest
// pending times, so that a front day holds dayTarget entries. Sizing it
// from the whole pending span instead lets a long tail (a departure far
// ahead of a market's spends) stretch the front days to hundreds of
// entries, each push into one paying a binary search and a memmove across
// the batch. When every pending event re-arms itself on firing — the hold
// model both simulators follow — a push lands in the draining day with
// probability about dayTarget/count, so a target of count/64 keeps splices
// near 1 in 64 pushes, while a large queue gets day batches long enough
// for the slab read-ahead and the callers' UpcomingActor look-ahead to
// overlap cache misses. The bounds keep small queues batching and cap the
// per-day sort.
func (q *calendarQueue) retune() {
	q.served, q.wide = 0, false
	q.dayTarget = min(max(q.count/64, calTargetOccupancy), calMaxDayTarget)
	all := q.scratch[:0]
	for _, s := range q.heads {
		for s != 0 {
			sl := &q.slots[s-1]
			all = append(all, calEntry{time: sl.time, seq: sl.seq, slot: s})
			s = sl.next
		}
	}
	all = append(all, q.drain[q.pos:]...)
	q.drain = q.drain[:0]
	q.pos = 0

	buckets := calMinBuckets
	for calTargetOccupancy*buckets < len(all) {
		buckets *= 2
	}
	// front holds the earliest finite pending times, ascending.
	var buf [calFrontSample]float64
	front := buf[:0]
	for _, e := range all {
		t := e.time
		if math.IsInf(t, 1) {
			continue
		}
		if len(front) == len(buf) {
			if t >= front[len(front)-1] {
				continue
			}
			front = front[:len(front)-1]
		}
		j := len(front)
		front = append(front, t)
		for j > 0 && front[j-1] > t {
			front[j] = front[j-1]
			j--
		}
		front[j] = t
	}
	// A front that is one tie says nothing about spacing: keep the old
	// width, which the wide-day and empty-lap checks correct if it is off.
	if n := len(front); n > 1 && front[n-1] > front[0] {
		q.width = (front[n-1] - front[0]) * float64(q.dayTarget) / float64(n-1)
	}
	if !(q.width > 0) || math.IsInf(q.width, 1) {
		q.width = 1
	}
	q.invWidth = 1 / q.width
	if !(q.invWidth > 0) || math.IsInf(q.invWidth, 1) {
		q.width, q.invWidth = 1, 1
	}
	if buckets <= cap(q.heads) {
		// Reslice rather than reallocate: a wheel that breathes between
		// two sizes would otherwise allocate on every retune.
		q.heads = q.heads[:buckets]
		clear(q.heads)
	} else {
		q.heads = make([]int32, buckets)
	}
	q.mask = int64(buckets - 1)
	minDay := int64(calMaxDay)
	for _, e := range all {
		// Write the full key: an entry push spliced into the drain was
		// never written to its slot, which may still hold a previous
		// occupant's time and seq.
		sl := &q.slots[e.slot-1]
		day := q.dayOf(e.time)
		sl.time, sl.seq, sl.day = e.time, e.seq, day
		if day < minDay {
			minDay = day
		}
		b := day & q.mask
		sl.next = q.heads[b]
		q.heads[b] = e.slot
	}
	if len(all) == 0 {
		minDay = 0
	}
	q.curDay = minDay
	q.scratch = all[:0]
}
