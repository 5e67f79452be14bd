package shard_test

import (
	"bytes"
	"sync"
	"testing"

	"creditp2p/internal/fault"
	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/shard"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

var (
	fuzzGraphOnce sync.Once
	fuzzGraph     *topology.Graph
)

// fuzzConfig is FuzzShardRestore's run: 200 peers on two lanes with
// churn, free riders and a tax pipeline, so every snapshot section is
// populated. Policies and the workload are stateful, so every restore
// gets fresh ones; the graph is built once.
func fuzzConfig(tb testing.TB) shard.Config {
	tb.Helper()
	fuzzGraphOnce.Do(func() {
		g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 200, MeanDegree: 6, Alpha: 2.5}, xrand.New(46))
		if err != nil {
			panic(err)
		}
		fuzzGraph = g
	})
	w, err := market.NewShard(market.ShardConfig{Mu: 2.0, Amount: 1, FreeRiderFrac: 0.1})
	if err != nil {
		tb.Fatal(err)
	}
	tax, err := policy.NewIncomeTax(0.2, 5)
	if err != nil {
		tb.Fatal(err)
	}
	inj, err := policy.NewInjection(1)
	if err != nil {
		tb.Fatal(err)
	}
	return shard.Config{
		Graph:         fuzzGraph,
		Shards:        2,
		Horizon:       10,
		Seed:          13,
		InitialWealth: 20,
		Churn:         shard.ChurnConfig{MeanLifespan: 6, MeanDowntime: 2},
		Policies:      []policy.Policy{tax, policy.NewRedistribute(), inj},
		PolicyEpoch:   1,
		Workload:      w,
	}
}

// fuzzChain checkpoints the fuzz run as a base and two deltas.
func fuzzChain(tb testing.TB) [][]byte {
	tb.Helper()
	sim, err := shard.NewSim(fuzzConfig(tb))
	if err != nil {
		tb.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		tb.Fatal(err)
	}
	sink := &memChain{}
	c := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{
		Delta: true, RebaseEvery: 64, MaxDeltaFraction: 1e9,
	})
	for k := 0; k < 3; k++ {
		for i := 0; i < 20; i++ {
			sim.StepWindow()
		}
		if err := c.Checkpoint(); err != nil {
			tb.Fatal(err)
		}
		if err := c.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	if len(sink.chain) != 3 {
		tb.Fatalf("chain has %d links, want a base and two deltas", len(sink.chain))
	}
	return sink.chain
}

// FuzzShardRestore feeds arbitrary bytes to the restore paths: as a full
// snapshot, and as the last link of a chain after the pristine base (and
// first delta). Each input is tried as given and re-sealed, so mutations
// reach the decoder and not only the checksum. Every outcome must be a
// restored run or an error — never a panic — and an input that differs
// from the pristine link it stands in for must be refused unless it was
// re-sealed.
func FuzzShardRestore(f *testing.F) {
	chain := fuzzChain(f)
	for k, link := range chain {
		last := k == 2
		f.Add(fault.Truncate(link, len(link)/2), last)
		f.Add(fault.BitFlip(link, len(link)*8/2), last)
		f.Add(fault.Tear(link, len(link)/2), last)
	}
	f.Fuzz(func(t *testing.T, data []byte, last bool) {
		pristine := chain[1]
		prefix := chain[:1]
		if last {
			pristine, prefix = chain[2], chain[:2]
		}
		for _, in := range [][]byte{data, reseal(data)} {
			_, errSim := shard.RestoreSim(fuzzConfig(t), in)
			links := append(append([][]byte(nil), prefix...), in)
			_, errChain := shard.RestoreChain(fuzzConfig(t), links)
			if bytes.Equal(in, data) && !bytes.Equal(in, pristine) && !bytes.Equal(in, chain[0]) {
				if errSim == nil || errChain == nil {
					t.Fatalf("corrupt link accepted: snapshot err %v, chain err %v", errSim, errChain)
				}
			}
		}
	})
}
