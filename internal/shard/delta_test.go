package shard_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"creditp2p/internal/fault"
	"creditp2p/internal/market"
	"creditp2p/internal/shard"
)

// memChain is an in-memory ChainSink mirroring snapshot.ChainStore's
// semantics: a base invalidates prior deltas. It copies every link —
// the checkpointer recycles the sealed buffer after the write returns —
// and records the call sequence for chain-shape assertions.
type memChain struct {
	ops   []string
	chain [][]byte
}

func (m *memChain) WriteBase(data []byte) error {
	m.ops = append(m.ops, "base")
	m.chain = [][]byte{append([]byte(nil), data...)}
	return nil
}

func (m *memChain) WriteDelta(index int, data []byte) error {
	m.ops = append(m.ops, fmt.Sprintf("delta%d", index))
	m.chain = append(m.chain, append([]byte(nil), data...))
	return nil
}

// stepWindows advances a run by n window barriers, failing the test if
// the horizon arrives first.
func stepWindows(t *testing.T, s *shard.Sim, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !s.StepWindow() {
			t.Fatal("horizon reached before the checkpoint plan completed")
		}
	}
}

// checkpointSync takes one pipelined checkpoint and drains the write, so
// the sink's chain is complete when it returns.
func checkpointSync(t *testing.T, c *shard.Checkpointer) {
	t.Helper()
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func cloneChain(chain [][]byte) [][]byte {
	out := make([][]byte, len(chain))
	copy(out, chain)
	return out
}

// TestDeltaChainParity is the delta format's central property: restoring
// from a base plus K delta links is byte-identical to a full snapshot of
// the same run at the same barrier, for every shard count and chain
// length, and the resumed run finishes with the straight run's exact
// result. A lockstep reference sim supplies the full snapshot; the
// deterministic snapshot ID makes the byte comparison exact.
func TestDeltaChainParity(t *testing.T) {
	const (
		warmup    = 30 // windows before the base
		perDelta  = 2  // windows between delta checkpoints
		maxDeltas = 5
	)
	for _, p := range []int{1, 2, 4, 8} {
		straight, err := shard.Run(marketConfig(t, p, taxPipeline(t)))
		if err != nil {
			t.Fatal(err)
		}

		sim, err := shard.NewSim(marketConfig(t, p, taxPipeline(t)))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Start(); err != nil {
			t.Fatal(err)
		}
		ref, err := shard.NewSim(marketConfig(t, p, taxPipeline(t)))
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Start(); err != nil {
			t.Fatal(err)
		}

		sink := &memChain{}
		c := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{
			Delta:            true,
			RebaseEvery:      64,
			MaxDeltaFraction: 1e9, // pin the chain shape: one base, K deltas
		})

		var restored *shard.Sim
		for k := 0; k <= maxDeltas; k++ {
			label := fmt.Sprintf("P=%d K=%d", p, k)
			n := warmup
			if k > 0 {
				n = perDelta
			}
			stepWindows(t, sim, n)
			stepWindows(t, ref, n)
			checkpointSync(t, c)

			if len(sink.chain) != k+1 {
				t.Fatalf("%s: chain has %d links, want base+%d deltas (ops %v)",
					label, len(sink.chain), k, sink.ops)
			}
			restored, err = shard.RestoreChain(marketConfig(t, p, taxPipeline(t)), cloneChain(sink.chain))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if restored.Now() != sim.Now() {
				t.Fatalf("%s: restored at t=%v, chain captured at t=%v", label, restored.Now(), sim.Now())
			}
			want := ref.Snapshot()
			got := restored.Snapshot()
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: chain restore diverges from the full snapshot: %d vs %d bytes",
					label, len(got), len(want))
			}
		}
		const wantOps = "base delta1 delta2 delta3 delta4 delta5"
		if got := strings.Join(sink.ops, " "); got != wantOps {
			t.Fatalf("P=%d: chain shape %q, want %q", p, got, wantOps)
		}

		// The deepest-chain restore finishes with the straight run's result.
		for restored.StepWindow() {
		}
		got, err := restored.Finish()
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("P=%d chain-resumed", p), straight, got)
	}
}

// TestDeltaChainParityStreaming repeats the parity property on the
// streaming workload — span-wise workload deltas over the heap queue
// backend instead of the calendar.
func TestDeltaChainParityStreaming(t *testing.T) {
	const deltas = 3
	straight, err := shard.Run(streamingConfig(t, 4, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := shard.NewSim(streamingConfig(t, 4, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	ref, err := shard.NewSim(streamingConfig(t, 4, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Start(); err != nil {
		t.Fatal(err)
	}
	sink := &memChain{}
	c := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{
		Delta: true, RebaseEvery: 64, MaxDeltaFraction: 1e9,
	})
	stepWindows(t, sim, 30)
	stepWindows(t, ref, 30)
	checkpointSync(t, c)
	for k := 0; k < deltas; k++ {
		stepWindows(t, sim, 2)
		stepWindows(t, ref, 2)
		checkpointSync(t, c)
	}
	if len(sink.chain) != deltas+1 {
		t.Fatalf("chain has %d links, want base+%d deltas (ops %v)", len(sink.chain), deltas, sink.ops)
	}
	restored, err := shard.RestoreChain(streamingConfig(t, 4, taxPipeline(t)), sink.chain)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := ref.Snapshot(), restored.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("chain restore diverges from the full snapshot: %d vs %d bytes", len(got), len(want))
	}
	for restored.StepWindow() {
	}
	got, err := restored.Finish()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "streaming chain-resumed", straight, got)
}

// buildTestChain produces a base+3-delta market chain at P=4 for the
// corruption and structural-fault sweeps.
func buildTestChain(t *testing.T) [][]byte {
	t.Helper()
	sim, err := shard.NewSim(marketConfig(t, 4, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	sink := &memChain{}
	c := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{
		Delta: true, RebaseEvery: 64, MaxDeltaFraction: 1e9,
	})
	stepWindows(t, sim, 30)
	checkpointSync(t, c)
	for k := 0; k < 3; k++ {
		stepWindows(t, sim, 2)
		checkpointSync(t, c)
	}
	if len(sink.chain) != 4 {
		t.Fatalf("chain has %d links, want 4 (ops %v)", len(sink.chain), sink.ops)
	}
	return sink.chain
}

// TestDeltaChainRejectsCorruption sweeps every storage fault over every
// chain link — truncation, a flipped bit, a torn tail — plus the
// structural faults a buggy store could produce (reordered, skipped,
// duplicated, baseless chains). Every variant must be refused; none may
// silently mis-restore.
func TestDeltaChainRejectsCorruption(t *testing.T) {
	chain := buildTestChain(t)
	if _, err := shard.RestoreChain(marketConfig(t, 4, taxPipeline(t)), chain); err != nil {
		t.Fatalf("pristine chain refused: %v", err)
	}

	fault.CorruptChain(chain, func(desc string, corrupted [][]byte) {
		if _, err := shard.RestoreChain(marketConfig(t, 4, taxPipeline(t)), corrupted); err == nil {
			t.Errorf("%s: corrupted chain restored without error", desc)
		}
	})

	structural := []struct {
		name string
		make func() [][]byte
	}{
		{"deltas reordered", func() [][]byte {
			c := cloneChain(chain)
			c[1], c[2] = c[2], c[1]
			return c
		}},
		{"delta skipped", func() [][]byte {
			return append(cloneChain(chain[:2]), chain[3])
		}},
		{"delta duplicated", func() [][]byte {
			return append(cloneChain(chain[:2]), chain[1], chain[2])
		}},
		{"base missing", func() [][]byte {
			return cloneChain(chain[1:])
		}},
		{"empty chain", func() [][]byte {
			return nil
		}},
	}
	for _, tc := range structural {
		if _, err := shard.RestoreChain(marketConfig(t, 4, taxPipeline(t)), tc.make()); err == nil {
			t.Errorf("%s: chain restored without error", tc.name)
		}
	}
}

// TestCheckpointerBaseMatchesSnapshot pins the parallel encode path to
// the serial one: a checkpointer base written at a barrier is
// byte-identical to Sim.Snapshot of an identical run at the same barrier
// — the k-fragment seal is a pure decomposition of the serial encoding.
func TestCheckpointerBaseMatchesSnapshot(t *testing.T) {
	serial, err := shard.NewSim(marketConfig(t, 4, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Start(); err != nil {
		t.Fatal(err)
	}
	piped, err := shard.NewSim(marketConfig(t, 4, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := piped.Start(); err != nil {
		t.Fatal(err)
	}
	stepWindows(t, serial, 40)
	stepWindows(t, piped, 40)

	want := serial.Snapshot()
	sink := &memChain{}
	c := shard.NewCheckpointer(piped.Engine(), sink, shard.CheckpointOptions{})
	checkpointSync(t, c)
	if len(sink.chain) != 1 || sink.ops[0] != "base" {
		t.Fatalf("expected one base write, got ops %v", sink.ops)
	}
	if !bytes.Equal(sink.chain[0], want) {
		t.Fatalf("parallel-encoded base (%d bytes) differs from serial snapshot (%d bytes)",
			len(sink.chain[0]), len(want))
	}
}

// TestCheckpointerRebasePolicy pins the chain-shape policy: RebaseEvery
// bounds the delta count between bases, and a foreign capture (anything
// that cleared the dirty maps outside the checkpointer, like a plain
// Snapshot call) forces the next link back to a base rather than emitting
// a delta relative to state the chain never saw.
func TestCheckpointerRebasePolicy(t *testing.T) {
	sim, err := shard.NewSim(marketConfig(t, 4, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	sink := &memChain{}
	c := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{
		Delta: true, RebaseEvery: 2, MaxDeltaFraction: 1e9,
	})
	stepWindows(t, sim, 20)
	for i := 0; i < 6; i++ {
		checkpointSync(t, c)
		stepWindows(t, sim, 2)
	}
	want := "base delta1 delta2 base delta1 delta2"
	if got := strings.Join(sink.ops, " "); got != want {
		t.Fatalf("chain ops %q, want %q", got, want)
	}
	st := c.Stats()
	if st.Checkpoints != 6 || st.Bases != 2 || st.Deltas != 4 {
		t.Fatalf("stats %+v, want 6 checkpoints = 2 bases + 4 deltas", st)
	}

	// Foreign capture mid-chain: the next checkpoint must re-base.
	sink2 := &memChain{}
	c2 := shard.NewCheckpointer(sim.Engine(), sink2, shard.CheckpointOptions{
		Delta: true, RebaseEvery: 64, MaxDeltaFraction: 1e9,
	})
	checkpointSync(t, c2)
	stepWindows(t, sim, 2)
	checkpointSync(t, c2)
	_ = sim.Snapshot() // foreign capture clears the dirty maps
	stepWindows(t, sim, 2)
	checkpointSync(t, c2)
	want = "base delta1 base"
	if got := strings.Join(sink2.ops, " "); got != want {
		t.Fatalf("chain ops after foreign capture %q, want %q", got, want)
	}
}

// deltaGuardConfig is the steady-state guard's regime: a population large
// enough that one conservative-sync window touches a small minority of
// the 512-peer/512-slot segments — the scale regime delta checkpoints
// exist for, shrunk to test size.
func deltaGuardConfig(t *testing.T) shard.Config {
	t.Helper()
	w, err := market.NewShard(market.ShardConfig{Mu: 2.0, Amount: 1, FreeRiderFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return shard.Config{
		Graph:         testGraph(t, 50000, 44),
		Shards:        4,
		Horizon:       1,
		Window:        1e-4,
		Seed:          9,
		InitialWealth: 30,
		Workload:      w,
	}
}

// TestDeltaBytesSteadyState is the size guard on the delta format: in
// steady state a delta checkpoint must write a small fraction of the
// base's bytes, and the absolute per-delta size must stay under a pinned
// ceiling so any change that silently drags a full array into the delta
// path (or breaks dirty-map clearing) fails loudly here.
func TestDeltaBytesSteadyState(t *testing.T) {
	sim, err := shard.NewSim(deltaGuardConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	sink := &memChain{}
	c := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{
		Delta: true, RebaseEvery: 64, MaxDeltaFraction: 1e9,
	})
	stepWindows(t, sim, 4)
	checkpointSync(t, c) // base
	const deltas = 12
	for i := 0; i < deltas; i++ {
		stepWindows(t, sim, 1)
		checkpointSync(t, c)
	}
	st := c.Stats()
	if st.Bases != 1 || st.Deltas != deltas {
		t.Fatalf("stats %+v, want 1 base + %d deltas", st, deltas)
	}
	perDelta := st.DeltaBytes / st.Deltas
	t.Logf("base %d bytes, %d deltas, %d bytes/delta (%.1f%% of base)",
		st.BaseBytes, st.Deltas, perDelta, 100*float64(perDelta)/float64(st.BaseBytes))
	if perDelta*4 > st.BaseBytes {
		t.Errorf("steady-state delta %d bytes is over a quarter of the %d-byte base — dirty tracking is not paying",
			perDelta, st.BaseBytes)
	}
	const ceiling = 600 << 10 // observed ~425 KiB/delta (14% of base) plus headroom
	if perDelta > ceiling {
		t.Errorf("steady-state delta %d bytes exceeds the %d-byte guard ceiling", perDelta, ceiling)
	}
}
