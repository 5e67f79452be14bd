package shard_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"creditp2p/internal/shard"
	"creditp2p/internal/snapshot"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// reseal recomputes a snapshot's CRC32C trailer, so a mutated payload
// reaches the decoder instead of failing the checksum.
func reseal(data []byte) []byte {
	if len(data) < 20 {
		return data
	}
	out := bytes.Clone(data)
	body := out[:len(out)-8]
	binary.LittleEndian.PutUint64(out[len(out)-8:], uint64(crc32.Checksum(body, castagnoli)))
	return out
}

// withVersion rewrites a snapshot's format version and reseals it.
func withVersion(data []byte, v uint32) []byte {
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[8:], v)
	return reseal(out)
}

// noPanic runs a restore and turns a panic into a test failure.
func noPanic(t *testing.T, restore func() error) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("restore panicked: %v", r)
		}
	}()
	return restore()
}

// TestRestoreRefusesCorruptPeerState feeds the restore paths per-peer
// state no run can reach — written into a live engine, then captured and
// sealed like any checkpoint, as a full snapshot and as the last delta of
// a chain — plus a previous-version header. Each must be refused with an
// error naming the fault, never a panic: before restore derived the
// lanes' histograms, a negative balance passed restore and panicked at
// the peer's next spend.
func TestRestoreRefusesCorruptPeerState(t *testing.T) {
	mk := func() shard.Config { return marketConfig(t, 2, taxPipeline(t)) }
	// pick returns the first peer whose liveness is alive.
	pick := func(e *shard.Engine, alive bool) int32 {
		_, _, flags, _, _ := e.PeerState()
		for g, f := range flags {
			if f&1 != 0 == alive {
				return int32(g)
			}
		}
		t.Fatalf("no peer with liveness %v", alive)
		return 0
	}
	nan := math.NaN()
	cases := []struct {
		name    string
		corrupt func(e *shard.Engine, now float64) int32
		want    string
	}{
		{"negative balance", func(e *shard.Engine, _ float64) int32 {
			g := pick(e, true)
			bal, _, _, _, _ := e.PeerState()
			bal[g] = -1
			return g
		}, "negative balance"},
		{"offline peer holds credits", func(e *shard.Engine, _ float64) int32 {
			g := pick(e, false)
			bal, _, _, _, _ := e.PeerState()
			bal[g] = 3
			return g
		}, "offline but holds"},
		{"balance off the books", func(e *shard.Engine, _ float64) int32 {
			g := pick(e, true)
			bal, _, _, _, _ := e.PeerState()
			bal[g]++
			return g
		}, "disagree with minted"},
		{"NaN workload clock", func(e *shard.Engine, _ float64) int32 {
			g := pick(e, true)
			_, _, _, next, _ := e.PeerState()
			next[g] = nan
			return g
		}, "next event"},
		{"workload clock behind the barrier", func(e *shard.Engine, now float64) int32 {
			g := pick(e, true)
			_, _, _, next, _ := e.PeerState()
			next[g] = now - 1
			return g
		}, "next event"},
		{"NaN lifecycle clock", func(e *shard.Engine, _ float64) int32 {
			g := pick(e, false)
			_, _, _, _, life := e.PeerState()
			life[g] = nan
			return g
		}, "lifecycle event"},
		{"lifecycle clock behind the barrier", func(e *shard.Engine, now float64) int32 {
			g := pick(e, true)
			_, _, _, _, life := e.PeerState()
			life[g] = now / 2
			return g
		}, "lifecycle event"},
	}
	for _, tc := range cases {
		for _, asDelta := range []bool{false, true} {
			name := tc.name
			if asDelta {
				name += " in a delta"
			}
			t.Run(name, func(t *testing.T) {
				sim, err := shard.NewSim(mk())
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
				if asDelta {
					checkpointSync(t, c)
					stepWindows(t, sim, 2)
				}
				e := sim.Engine()
				e.MarkPeer(tc.corrupt(e, sim.Now()))
				var restore func() error
				if asDelta {
					checkpointSync(t, c)
					if len(sink.chain) != 2 {
						t.Fatalf("chain has %d links, want a base and one delta", len(sink.chain))
					}
					restore = func() error { _, err := shard.RestoreChain(mk(), sink.chain); return err }
				} else {
					snap := sim.Snapshot()
					restore = func() error { _, err := shard.RestoreSim(mk(), snap); return err }
				}
				err = noPanic(t, restore)
				if err == nil {
					t.Fatal("corrupt state restored without error")
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("refused for the wrong reason: %v", err)
				}
			})
		}
	}
	t.Run("version 4", func(t *testing.T) {
		sim, err := shard.NewSim(mk())
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Start(); err != nil {
			t.Fatal(err)
		}
		stepWindows(t, sim, 5)
		old := withVersion(sim.Snapshot(), snapshot.Version-1)
		for name, restore := range map[string]func() error{
			"snapshot": func() error { _, err := shard.RestoreSim(mk(), old); return err },
			"chain":    func() error { _, err := shard.RestoreChain(mk(), [][]byte{old}); return err },
		} {
			err := noPanic(t, restore)
			if err == nil || !strings.Contains(err.Error(), "version 4") {
				t.Errorf("%s: version-4 file not refused by its version: %v", name, err)
			}
		}
	})
}
