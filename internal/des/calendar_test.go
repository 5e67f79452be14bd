package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"creditp2p/internal/xrand"
)

// oracleEntry is one pending event in the reference model: a plain list
// that delivers by a full sort on (time, seq).
type oracleEntry struct {
	time float64
	seq  int
	ev   Event
}

// oracle is the reference pending set runOracle checks the calendar
// against.
type oracle struct {
	pending []oracleEntry
}

// runUntil removes and returns, in (time, seq) order, every pending entry
// with time <= horizon.
func (o *oracle) runUntil(horizon float64) []Event {
	sort.Slice(o.pending, func(i, j int) bool {
		a, b := o.pending[i], o.pending[j]
		if a.time != b.time {
			return a.time < b.time
		}
		return a.seq < b.seq
	})
	n := 0
	for n < len(o.pending) && o.pending[n].time <= horizon {
		n++
	}
	out := make([]Event, n)
	for i, e := range o.pending[:n] {
		out[i] = e.ev
	}
	o.pending = o.pending[n:]
	return out
}

// cancel drops the entry scheduled under seq, if still pending.
func (o *oracle) cancel(seq int) {
	for i, e := range o.pending {
		if e.seq == seq {
			o.pending = append(o.pending[:i], o.pending[i+1:]...)
			return
		}
	}
}

// runOracle drives a scheduler through a seeded script of schedules,
// cancellations and horizon advances, and asserts it delivers exactly the
// sorted (time, seq) oracle's sequence — heap order, the reference the
// calendar was first checked against. Events are scheduled both far
// ahead (spread) and close to now, so pushes regularly land in the day the
// calendar is draining, and the pending count swings enough to retune the
// wheel between those splices and their delivery. A positive grid rounds
// every delay down to a multiple of it, forcing ties.
func runOracle(t *testing.T, seed int64, rounds, batch int, spread, grid, cancelFrac float64) {
	t.Helper()
	r := xrand.New(seed)
	s := NewScheduler()
	o := &oracle{}
	var handles []Handle
	var seqs []int
	seq := 0
	check := func(got, want []Event) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("seed %d: delivered %d events, oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d is %+v, oracle %+v", seed, i, got[i], want[i])
			}
		}
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < batch; i++ {
			d := r.Float64() * spread
			if r.Float64() < 0.3 {
				d *= 1e-3 // near now: likely inside the draining day
			}
			if grid > 0 {
				d = math.Floor(d/grid) * grid
			}
			at := s.Now() + d
			ev := Event{Time: at, Kind: uint16(round % 7), Actor: int32(i), Payload: int64(seq)}
			h, err := s.ScheduleAt(at, ev.Kind, ev.Actor, ev.Payload)
			if err != nil {
				t.Fatal(err)
			}
			o.pending = append(o.pending, oracleEntry{time: at, seq: seq, ev: ev})
			handles = append(handles, h)
			seqs = append(seqs, seq)
			seq++
		}
		nCancel := int(float64(len(handles)) * cancelFrac)
		for i := 0; i < nCancel; i++ {
			k := r.Intn(len(handles))
			if s.Cancel(handles[k]) {
				o.cancel(seqs[k])
			}
		}
		horizon := s.Now() + spread/3
		var got []Event
		s.RunUntil(horizon, func(ev Event) { got = append(got, ev) })
		check(got, o.runUntil(horizon))
	}
	var got []Event
	s.Drain(func(ev Event) { got = append(got, ev) })
	check(got, o.runUntil(math.Inf(1)))
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestCalendarMatchesHeap(t *testing.T) {
	// Dense queue with churn and cancellations across many resizes.
	runOracle(t, 1, 60, 40, 10, 0, 0.2)
	// Sparse far-apart events: exercises the empty-lap retune.
	runOracle(t, 2, 20, 2, 1e6, 0, 0.1)
	// Heavy ties: a coarse time grid forces (time, seq) tie-breaking.
	runOracle(t, 3, 30, 30, 4, 1, 0)
	// A growing queue: retunes land between splices into the draining day
	// and their delivery.
	runOracle(t, 10, 40, 100, 10, 0, 0.3)
}

func TestCalendarMatchesHeapProperty(t *testing.T) {
	f := func(seed int64, batchSeed uint8) bool {
		batch := int(batchSeed%30) + 1
		ok := true
		func() {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			runOracle(t, seed, 15, batch, 50, 0, 0.15)
		}()
		return ok && !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCalendarRetuneKeepsSplicedKeys is the regression test for retune
// re-chaining the drain remainder without its keys: an entry spliced into
// the draining day is never written to its slot, so a retune before it is
// served must copy its time and seq there, or it surfaces with the slot's
// previous occupant's key.
func TestCalendarRetuneKeepsSplicedKeys(t *testing.T) {
	s := NewScheduler()
	var want []float64
	for i := 0; i < 100; i++ { // one day at the initial unit width
		at := 10 + float64(i)*1e-3
		if _, err := s.ScheduleAt(at, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		want = append(want, at)
	}
	var got []float64
	rec := func(ev Event) { got = append(got, ev.Time) }
	s.Step(rec) // drains day 10 and frees slot 1, still holding time 10
	if !s.cal.draining() {
		t.Fatal("day 10 is not draining")
	}
	// Reuses slot 1 and splices into the draining day.
	if _, err := s.ScheduleAt(10.0505, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	want = append(want, 10.0505)
	// Far-future events push the count past the grow threshold.
	for i := 0; i < 40; i++ {
		at := 1000 + float64(i)
		if _, err := s.ScheduleAt(at, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		want = append(want, at)
	}
	if len(s.cal.heads) == calMinBuckets {
		t.Fatal("the wheel did not retune")
	}
	s.Drain(rec)
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("delivered %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

// TestCalendarDrainBoundedUnderSplices pins drain compaction: a day that
// takes a splice for every event it serves must reclaim its served prefix
// instead of growing the buffer by one entry per event.
func TestCalendarDrainBoundedUnderSplices(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 10; i++ {
		if _, err := s.ScheduleAt(0.5, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	nop := func(Event) {}
	for i := 0; i < 100_000; i++ {
		s.Step(nop)
		// At now, so it joins the draining day behind the queued ties.
		if _, err := s.ScheduleAt(s.Now(), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := cap(s.cal.drain); got > 64 {
		t.Errorf("drain buffer capacity %d after 100k same-day splices, want <= 64", got)
	}
	if n := s.Drain(nop); n != 10 {
		t.Errorf("drained %d events, want 10", n)
	}
}

func TestCalendarTiesFIFO(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 100; i++ {
		if _, err := s.ScheduleAt(5, 0, int32(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	i := int32(0)
	s.RunUntil(10, func(ev Event) {
		if ev.Actor != i {
			t.Fatalf("tie-break not FIFO at %d: actor %d", i, ev.Actor)
		}
		i++
	})
	if i != 100 {
		t.Fatalf("delivered %d of 100 simultaneous events", i)
	}
}

func TestCalendarScheduleBehindScanPosition(t *testing.T) {
	// A far-future event advances the calendar's scan day; an event then
	// scheduled much earlier (but after now) must still fire first.
	s := NewScheduler()
	if _, err := s.ScheduleAt(1e6, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if n := s.RunUntil(10, func(Event) {}); n != 0 {
		t.Fatalf("far-future event fired early (%d)", n)
	}
	if _, err := s.ScheduleAt(20, 2, 0, 0); err != nil {
		t.Fatal(err)
	}
	var kinds []uint16
	s.Drain(func(ev Event) { kinds = append(kinds, ev.Kind) })
	if len(kinds) != 2 || kinds[0] != 2 || kinds[1] != 1 {
		t.Fatalf("delivery order = %v, want [2 1]", kinds)
	}
}

// TestCalendarRetunesWideDays pins the front-density width: a queue that
// never crosses a resize trigger (100 pending, below the 128-entry grow
// threshold) must still leave the initial unit width, which at this event
// rate packs about 60 entries into every drained day, and settle where a
// day holds a handful.
func TestCalendarRetunesWideDays(t *testing.T) {
	s := NewScheduler()
	r := xrand.New(6)
	for i := 0; i < 100; i++ {
		if _, err := s.Schedule(r.Exponential(1), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The hold model: every fired event re-arms one at Exp(1) ahead.
	rearm := func(Event) {
		if _, err := s.Schedule(r.Exponential(1), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5000; i++ {
		s.Step(rearm)
	}
	// 100 pending at rate 1 each: 100 events per unit of time at the
	// front, so a four-entry day is about 0.04 wide.
	if s.cal.width > 0.25 {
		t.Errorf("day width %v after 5000 events, want a front day of a few entries (about 0.04)", s.cal.width)
	}
}

func TestCalendarShrinksAfterDrain(t *testing.T) {
	s := NewScheduler()
	r := xrand.New(4)
	for i := 0; i < 4096; i++ {
		if _, err := s.Schedule(r.Float64()*100, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	grown := len(s.cal.heads)
	if grown <= calMinBuckets {
		t.Fatalf("wheel did not grow: %d buckets for 4096 events", grown)
	}
	s.Drain(func(Event) {})
	if got := len(s.cal.heads); got != calMinBuckets {
		t.Errorf("wheel kept %d buckets after drain, want %d", got, calMinBuckets)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after drain", s.Pending())
	}
}

// benchLargePending measures the hold model at a large steady pending set
// (the million-peer regime: one armed spend per peer).
func benchLargePending(b *testing.B, pending int) {
	s := NewScheduler()
	r := xrand.New(2)
	for i := 0; i < pending; i++ {
		if _, err := s.Schedule(1+r.Float64(), 0, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fire one, schedule one: the hold model of a running simulation.
		s.Step(func(ev Event) {
			if _, err := s.Schedule(1+r.Float64(), 0, 0, 0); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkCalendarPending100k(b *testing.B) { benchLargePending(b, 100_000) }
func BenchmarkCalendarPending1M(b *testing.B)   { benchLargePending(b, 1_000_000) }
