package des

import (
	"math/rand"
	"testing"
)

// randomLanes builds n outboxes holding total events drawn on a coarse
// time grid (so duplicate times across and within lanes are common) and
// routed to lanes at random, so some lanes end up empty. Each buffer is
// filled through Add and then sorted, the same construction path the
// kernel uses, so it is canonically ordered. Per-source Seq counters keep the
// (Time, Src, Seq) key set duplicate-free, matching the kernel's "one
// effect per (Time, Seq) per peer" invariant.
func randomLanes(rng *rand.Rand, n, total int) []*MergeBuffer {
	lanes := make([]*MergeBuffer, n)
	for i := range lanes {
		lanes[i] = &MergeBuffer{}
	}
	seq := map[[2]int64]uint32{}
	for i := 0; i < total; i++ {
		t := float64(rng.Intn(16)) / 4 // coarse grid: many exact ties
		src := int32(rng.Intn(8))
		k := [2]int64{int64(t * 4), int64(src)}
		lanes[rng.Intn(n)].Add(XEvent{
			Time:   t,
			Src:    src,
			Dst:    int32(rng.Intn(64)),
			Seq:    seq[k],
			Amount: int64(rng.Intn(100)),
			Kind:   uint16(rng.Intn(4)),
		})
		seq[k]++
	}
	for _, b := range lanes {
		b.Sort()
	}
	return lanes
}

// TestMergerMatchesCollect is the k-way/sort parity property: over many
// randomized lane fillings — duplicate times, empty lanes, lane counts
// from 1 to 9 (crossing every power-of-two padding boundary) — the loser
// tree must produce byte-for-byte the sequence of the sort-based
// reference.
func TestMergerMatchesCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var m Merger
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(9)
		total := rng.Intn(200)
		lanes := randomLanes(rng, n, total)
		runs := make([][]XEvent, n)
		for i, b := range lanes {
			runs[i] = b.Events()
		}
		want := Collect(nil, lanes)
		got := m.Merge(nil, runs)
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d, total=%d): merged %d events, want %d",
				trial, n, total, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d): merged[%d] = %+v, want %+v",
					trial, n, i, got[i], want[i])
			}
		}
	}
}

// TestMergerAllEmpty covers the degenerate windows: no runs at all, and
// runs that are all empty.
func TestMergerAllEmpty(t *testing.T) {
	var m Merger
	if got := m.Merge(nil, nil); len(got) != 0 {
		t.Fatalf("merge of no runs = %+v", got)
	}
	if got := m.Merge(nil, [][]XEvent{{}, {}, {}}); len(got) != 0 {
		t.Fatalf("merge of empty runs = %+v", got)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after empty merge", m.Len())
	}
}

// TestMergeBufferSort pins the outbox contract: Add appends in emission
// order (a lane sweeps peer by peer, so a later peer's earlier-time
// effect follows an earlier peer's later one), and Sort puts the buffer
// in canonical (Time, Src, Seq) order — the k-way merge's precondition —
// without allocating.
func TestMergeBufferSort(t *testing.T) {
	b := &MergeBuffer{}
	b.Add(XEvent{Time: 1, Src: 5, Seq: 0})
	b.Add(XEvent{Time: 2, Src: 5, Seq: 0})
	b.Add(XEvent{Time: 1, Src: 2, Seq: 1}) // ties on time, sorts before Src 5
	b.Add(XEvent{Time: 1, Src: 2, Seq: 0}) // sorts before its own Seq 1
	b.Add(XEvent{Time: 0.5, Src: 9, Seq: 0})
	if got := b.Events()[2]; got != (XEvent{Time: 1, Src: 2, Seq: 1}) {
		t.Fatalf("Add reordered the buffer: ev[2] = %+v", got)
	}
	want := []XEvent{
		{Time: 0.5, Src: 9, Seq: 0},
		{Time: 1, Src: 2, Seq: 0},
		{Time: 1, Src: 2, Seq: 1},
		{Time: 1, Src: 5, Seq: 0},
		{Time: 2, Src: 5, Seq: 0},
	}
	if allocs := testing.AllocsPerRun(1, b.Sort); allocs != 0 {
		t.Fatalf("Sort allocates %v, want 0", allocs)
	}
	got := b.Events()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ev[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestMergerSteadyStateZeroAlloc pins the recycling contract: after the
// first window at a given lane count, repeated Merge calls into a reused
// dst allocate nothing.
func TestMergerSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lanes := randomLanes(rng, 6, 300)
	runs := make([][]XEvent, len(lanes))
	for i, b := range lanes {
		runs[i] = b.Events()
	}
	var m Merger
	dst := m.Merge(nil, runs) // warm: sizes the tree and dst
	allocs := testing.AllocsPerRun(10, func() {
		dst = m.Merge(dst[:0], runs)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Merge allocates %v per call, want 0", allocs)
	}
}

// TestMergeBufferTrim checks the high-water shrink: a spike followed by
// quiet windows releases the slack, while steady traffic never
// reallocates.
func TestMergeBufferTrim(t *testing.T) {
	b := &MergeBuffer{}
	for i := 0; i < 1000; i++ { // spike window
		b.Add(XEvent{Time: float64(i), Src: int32(i)})
	}
	b.Reset()
	spikeCap := cap(b.ev)
	for w := 0; w < 4; w++ { // quiet windows at ~20 events
		for i := 0; i < 20; i++ {
			b.Add(XEvent{Time: float64(i), Src: int32(i)})
		}
		b.Reset()
	}
	b.Trim() // hw is 1000 from the spike: keeps capacity
	if cap(b.ev) != spikeCap {
		t.Fatalf("first Trim reallocated: cap %d -> %d", spikeCap, cap(b.ev))
	}
	for w := 0; w < 4; w++ {
		for i := 0; i < 20; i++ {
			b.Add(XEvent{Time: float64(i), Src: int32(i)})
		}
		b.Reset()
	}
	b.Trim() // hw is now 20: 4x oversized, shrinks
	if cap(b.ev) >= spikeCap {
		t.Fatalf("second Trim kept spike capacity %d", cap(b.ev))
	}
	if cap(b.ev) < 20 {
		t.Fatalf("Trim cut below the high-water mark: cap %d", cap(b.ev))
	}
	// Steady traffic under the 64-element floor never reallocates.
	small := &MergeBuffer{}
	small.Add(XEvent{Time: 1})
	small.Reset()
	c := cap(small.ev)
	small.Trim()
	if cap(small.ev) != c {
		t.Fatalf("Trim reallocated a small buffer: %d -> %d", c, cap(small.ev))
	}
}

// FuzzMergeParity fuzzes the k-way/sort parity over generated lane
// fillings: the fuzzer picks the lane count, event count and draw seed,
// and any divergence between the loser tree and the sort-based reference
// fails.
func FuzzMergeParity(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(50))
	f.Add(int64(99), uint8(1), uint16(0))
	f.Add(int64(7), uint8(9), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, nLanes uint8, total uint16) {
		n := 1 + int(nLanes%12)
		rng := rand.New(rand.NewSource(seed))
		lanes := randomLanes(rng, n, int(total%1024))
		runs := make([][]XEvent, n)
		for i, b := range lanes {
			runs[i] = b.Events()
		}
		want := Collect(nil, lanes)
		var m Merger
		got := m.Merge(nil, runs)
		if len(got) != len(want) {
			t.Fatalf("merged %d events, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("merged[%d] = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}
