// Package des is a minimal discrete-event simulation kernel: a time-ordered
// event queue with deterministic tie-breaking and a scheduler that advances
// virtual time. Both the credit-market simulator (queue-granularity Jackson
// dynamics) and the churn machinery are built on it.
//
// The kernel is built for throughput: events are plain values (a kind tag,
// an actor index, and one payload word) held in a slab that is recycled
// through a free list, and ordered by a bucketed calendar queue (O(1)
// amortized per event) that delivers them in exact ascending (time, seq)
// order, seq being the scheduling order. In steady state — events
// scheduled and fired at a matched rate — the scheduler performs zero heap
// allocations per event.
// Cancellation is O(1) through generation-counted handles; cancelled
// events are discarded lazily when they surface at the head of the queue.
package des

import (
	"errors"
	"fmt"
	"math"

	"creditp2p/internal/cacheline"
	"creditp2p/internal/snapshot"
)

// ErrPastTime is returned when an event is scheduled before the current
// simulation time.
var ErrPastTime = errors.New("des: event scheduled in the past")

// ErrBadTime is returned when an event is scheduled at a NaN time.
var ErrBadTime = errors.New("des: NaN event time")

// Event is one typed simulation event. The scheduler stores and returns
// events by value; the meaning of Kind, Actor and Payload is defined by the
// simulation that owns the scheduler.
type Event struct {
	// Time is the virtual time at which the event fires.
	Time float64
	// Payload is one free word of application data (a generation counter, a
	// table index, ...).
	Payload int64
	// Actor is the entity the event concerns, typically a dense peer index;
	// -1 conventionally means "the system".
	Actor int32
	// Kind tags the event type for dispatch.
	Kind uint16
}

// Handle identifies a scheduled event for cancellation. The zero Handle is
// invalid (never issued) and safe to Cancel. Handles are generation-counted:
// once the underlying slot is recycled a stale handle no longer matches and
// all operations on it are no-ops.
type Handle struct {
	slot int32 // 1-based slab index; 0 marks the invalid handle
	gen  uint32
}

// Valid reports whether the handle was issued by a scheduler (it may still
// refer to an already-fired or cancelled event).
func (h Handle) Valid() bool { return h.slot != 0 }

// node slot states.
const (
	slotFree uint8 = iota
	slotLive
	slotDead // cancelled but still queued
)

// node is one slab entry: the event value plus queue bookkeeping.
type node struct {
	time    float64
	payload int64
	actor   int32
	gen     uint32
	kind    uint16
	state   uint8
}

// slab dirty-segment granularity: slabSegSize slots per segment. A
// segment's per-field spans total ~18 KB — coarse enough that per-segment
// framing overhead vanishes, fine enough that a checkpoint window touching
// a fraction of the slab writes a matching fraction of the bytes. The LIFO
// free list concentrates slot churn, so a stable pending set re-dirties
// the same few segments window after window.
const (
	slabSegShift = 9
	slabSegSize  = 1 << slabSegShift
)

// Scheduler owns virtual time and the pending event set. It is not safe for
// concurrent use; a simulation is a single-goroutine loop.
type Scheduler struct {
	// The pads keep the cursors and counters every event writes, the
	// calendar's included, off any line another lane's scheduler writes
	// (see cacheline).
	_       cacheline.Pad
	now     float64
	seq     uint64
	slab    []node
	seqOf   []uint64      // per-slot seq of the occupying entry (slab-parallel)
	free    []int32       // recycled slab slots
	cal     calendarQueue // pending entries keyed by (time, seq)
	live    int           // scheduled and not cancelled
	fired   uint64
	dropped uint64
	// dirty tracks slab segments touched since the last state capture —
	// the delta-checkpoint bookkeeping, maintained on every slot mutation.
	dirty snapshot.DirtyBits
	// enc is the recycled per-field extraction scratch for state captures.
	enc *encScratch
	// warm sinks the read-ahead loads in pop so the compiler cannot drop
	// them; the value itself is meaningless and never read.
	warm uint32
	_    cacheline.Pad
}

// NewScheduler returns a scheduler at time 0 with no pending events.
func NewScheduler() *Scheduler {
	return &Scheduler{cal: newCalendarQueue()}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() float64 { return s.now }

// Fired returns the number of events that have been delivered.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of scheduled, not-yet-cancelled events.
func (s *Scheduler) Pending() int { return s.live }

// ScheduleAt registers an event at absolute time t and returns its handle.
func (s *Scheduler) ScheduleAt(t float64, kind uint16, actor int32, payload int64) (Handle, error) {
	if math.IsNaN(t) {
		return Handle{}, ErrBadTime
	}
	if t < s.now {
		return Handle{}, fmt.Errorf("%w: t=%v now=%v", ErrPastTime, t, s.now)
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slab = append(s.slab, node{})
		s.seqOf = append(s.seqOf, 0)
		slot = int32(len(s.slab)) // 1-based
		s.dirty.Grow((len(s.slab) + slabSegSize - 1) >> slabSegShift)
	}
	nd := &s.slab[slot-1]
	nd.time = t
	nd.payload = payload
	nd.actor = actor
	nd.kind = kind
	nd.state = slotLive
	s.seqOf[slot-1] = s.seq
	s.markSlot(slot)
	s.cal.push(t, s.seq, slot)
	s.seq++
	s.live++
	return Handle{slot: slot, gen: nd.gen}, nil
}

// Schedule registers an event after the given non-negative delay.
func (s *Scheduler) Schedule(delay float64, kind uint16, actor int32, payload int64) (Handle, error) {
	return s.ScheduleAt(s.now+delay, kind, actor, payload)
}

// Cancel marks the event so it will not be delivered. Cancelling an already
// fired, already cancelled, or invalid handle is a no-op. Cancellation is
// O(1); the dead slot is discarded lazily when it surfaces in the queue.
// It reports whether a pending event was actually cancelled.
func (s *Scheduler) Cancel(h Handle) bool {
	if h.slot == 0 {
		return false
	}
	nd := &s.slab[h.slot-1]
	if nd.gen != h.gen || nd.state != slotLive {
		return false
	}
	nd.state = slotDead
	s.markSlot(h.slot)
	s.live--
	return true
}

// Cancelled reports whether the handle no longer refers to a pending event
// (it was cancelled, already fired, or never issued).
func (s *Scheduler) Cancelled(h Handle) bool {
	if h.slot == 0 {
		return true
	}
	nd := &s.slab[h.slot-1]
	return nd.gen != h.gen || nd.state != slotLive
}

// Step delivers the earliest pending event. It reports whether one fired.
func (s *Scheduler) Step(deliver func(Event)) bool {
	ev, ok := s.pop(math.Inf(1))
	if !ok {
		return false
	}
	s.fired++
	deliver(ev)
	return true
}

// StepUntil delivers the earliest pending event with time <= horizon. It
// reports whether one fired — false means the queue is exhausted or the
// next event lies beyond the horizon. It is the single-step primitive
// RunUntil is built on, exposed so checkpointing drivers can stop a run at
// an arbitrary event index.
func (s *Scheduler) StepUntil(horizon float64, deliver func(Event)) bool {
	ev, ok := s.pop(horizon)
	if !ok {
		return false
	}
	s.fired++
	deliver(ev)
	return true
}

// FinishAt advances virtual time to horizon when the last fired event left
// it earlier — the epilogue of a bounded run.
func (s *Scheduler) FinishAt(horizon float64) {
	if s.now < horizon {
		s.now = horizon
	}
}

// RunUntil delivers events in time order until the queue is empty or the
// next event is after horizon. Time is left at the later of the last fired
// event and horizon. It returns the number of events delivered.
func (s *Scheduler) RunUntil(horizon float64, deliver func(Event)) uint64 {
	var fired uint64
	for s.StepUntil(horizon, deliver) {
		fired++
	}
	s.FinishAt(horizon)
	return fired
}

// Drain delivers all pending events regardless of time, leaving virtual
// time at the last fired event. Intended for tests.
func (s *Scheduler) Drain(deliver func(Event)) uint64 {
	var fired uint64
	for {
		ev, ok := s.pop(math.Inf(1))
		if !ok {
			break
		}
		s.fired++
		fired++
		deliver(ev)
	}
	return fired
}

// pop removes and returns the earliest live event with time <= horizon,
// advancing virtual time to it. Dead (cancelled) slots encountered at the
// head are freed and skipped. The delivery order is exact (time, seq).
func (s *Scheduler) pop(horizon float64) (Event, bool) {
	q := &s.cal
	for {
		var head calEntry
		if q.draining() {
			head = q.drain[q.pos]
		} else {
			var ok bool
			if head, ok = q.peek(); !ok {
				return Event{}, false
			}
		}
		if q.warmPos < len(q.drain) && q.pos+32 > q.warmPos {
			// The drain batch's serve order is known ahead of time, so
			// touch the slab nodes it will visit, staying a chunk in
			// front of the cursor: at large populations each pop's slab
			// access is a cache miss, and issuing the batch's loads
			// together overlaps them instead of paying one serialized
			// miss per event. (Exponential pending-time distributions
			// make the front days dense, so batches can run to hundreds
			// of entries — warming in chunks keeps the touched window
			// inside L1 instead of thrashing it.)
			d := q.drain
			lim := min(q.pos+96, len(d))
			var warm uint32
			for i := q.warmPos; i < lim; i++ {
				warm += uint32(s.slab[d[i].slot-1].gen)
			}
			s.warm = warm
			q.warmPos = lim
		}
		q.prewalkStep()
		nd := &s.slab[head.slot-1]
		if nd.state == slotDead {
			q.pop()
			s.recycle(head.slot)
			s.dropped++
			continue
		}
		if head.time > horizon {
			return Event{}, false
		}
		ev := Event{Time: head.time, Kind: nd.kind, Actor: nd.actor, Payload: nd.payload}
		q.pop()
		s.recycle(head.slot)
		s.live--
		s.now = ev.Time
		return ev, true
	}
}

// UpcomingActor returns the actor of the k-th event after the current
// queue head when the calendar's sorted drain batch holds it. ok is false
// when fewer than k+1 entries are left in the batch. It is a prefetch hint
// for callers that want to warm per-actor state ahead of delivery: the
// result may include cancelled events and never affects what pop returns.
func (s *Scheduler) UpcomingActor(k int) (int32, bool) {
	i := s.cal.pos + k
	if i >= len(s.cal.drain) {
		return 0, false
	}
	return s.slab[s.cal.drain[i].slot-1].actor, true
}

// recycle returns a slot to the free list, invalidating outstanding handles.
func (s *Scheduler) recycle(slot int32) {
	nd := &s.slab[slot-1]
	nd.state = slotFree
	nd.gen++
	s.free = append(s.free, slot)
	s.markSlot(slot)
}

// markSlot flags the slab segment holding slot dirty.
func (s *Scheduler) markSlot(slot int32) { s.dirty.Mark(int(slot-1) >> slabSegShift) }
