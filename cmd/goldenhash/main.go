// Command goldenhash fingerprints the simulators' outputs across a battery
// of mechanism combinations. It exists for cross-commit byte-compatibility
// checks during performance work: run it on two trees and diff the lines.
//
// With -resume, every combo instead runs the crash/restore drill: a clean
// run counts its events, a second run crashes a third of the way in and
// writes a snapshot, and a third process-fresh simulation restores the
// snapshot and runs to completion. The printed hashes are the resumed
// runs'; diffing them against the default mode's (scenario and paper lines
// excluded) asserts byte-identical resume for every mechanism combo. -fast
// overrides the sampling mode across the market combos, so the same drill
// covers both exact and fast sampling without extra case tables.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"creditp2p/internal/credit"
	"creditp2p/internal/experiments"
	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/scenario"
	"creditp2p/internal/shard"
	"creditp2p/internal/streaming"
	"creditp2p/internal/topology"
	"creditp2p/internal/trace"
	"creditp2p/internal/xrand"
)

func f64(h interface{ Write([]byte) (int, error) }, v float64) {
	var b [8]byte
	u := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
}

func series(h interface{ Write([]byte) (int, error) }, s *trace.Series) {
	if s == nil {
		return
	}
	for i := range s.Values {
		f64(h, s.Times[i])
		f64(h, s.Values[i])
	}
}

func hashMarket(res *market.Result) uint64 {
	h := fnv.New64a()
	f64(h, float64(res.SpendEvents))
	f64(h, float64(res.Joins))
	f64(h, float64(res.Departures))
	f64(h, float64(res.TaxCollected))
	f64(h, float64(res.TaxRedistributed))
	f64(h, float64(res.Injected))
	f64(h, res.FinalGini)
	series(h, res.Gini)
	series(h, res.Population)
	series(h, res.Supply)
	for _, sn := range res.Snapshots {
		f64(h, sn.Time)
		for _, v := range sn.Sorted {
			f64(h, v)
		}
	}
	ids := make([]int, 0, len(res.FinalWealth))
	for id := range res.FinalWealth {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		f64(h, float64(id))
		f64(h, float64(res.FinalWealth[id]))
		f64(h, res.SpendingRate[id])
	}
	return h.Sum64()
}

func hashStreaming(res *streaming.Result) uint64 {
	h := fnv.New64a()
	f64(h, float64(res.ChunksTraded))
	f64(h, float64(res.ChunksSeeded))
	f64(h, float64(res.Stalls))
	f64(h, float64(res.Departures))
	f64(h, res.GiniSpending)
	f64(h, res.GiniWealth)
	series(h, res.WealthGini)
	ids := make([]int, 0, len(res.FinalWealth))
	for id := range res.FinalWealth {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		f64(h, float64(id))
		f64(h, float64(res.FinalWealth[id]))
		f64(h, res.SpendingRate[id])
		f64(h, res.DownloadRate[id])
		f64(h, res.Continuity[id])
	}
	return h.Sum64()
}

// hashStreamingPolicy extends hashStreaming with the policy counters the
// engine added to the streaming Result. A separate hash keeps the
// pre-engine streaming lines byte-stable.
func hashStreamingPolicy(res *streaming.Result) uint64 {
	h := fnv.New64a()
	u64(h, hashStreaming(res))
	f64(h, float64(res.TaxCollected))
	f64(h, float64(res.TaxRedistributed))
	f64(h, float64(res.Injected))
	return h.Sum64()
}

func u64(h interface{ Write([]byte) (int, error) }, u uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
}

func marketGraph(n, d int, seed int64) *topology.Graph {
	g, err := topology.RandomRegular(n, d, xrand.New(seed))
	if err != nil {
		panic(err)
	}
	return g
}

func scaleFree(n int, seed int64) *topology.Graph {
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: n, Alpha: 2.5, MeanDegree: 12}, xrand.New(seed))
	if err != nil {
		panic(err)
	}
	return g
}

// hashGraph fingerprints an overlay's CSR bytes: every node in ascending
// id order with its degree and its ascending neighbor row.
func hashGraph(g *topology.Graph) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v int32) {
		for i := 0; i < 4; i++ {
			b[i] = byte(uint32(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, id := range g.Nodes() {
		row := g.NeighborsView(id)
		put(int32(id))
		put(int32(len(row)))
		for _, nb := range row {
			put(nb)
		}
	}
	return h.Sum64()
}

// graphLines prints the generator fingerprint lines: the 100k-peer
// scale-free overlays of the adaptive-tax and taxed-streaming scenarios
// (seeds 7005 and 7008, the paper's alpha=2.5 and mean degree 20) and a
// 100k random 20-regular graph. They pin the exact graph bytes the stub
// matcher produces, independent of any simulator.
func graphLines() {
	sf := func(seed int64) func() (*topology.Graph, error) {
		return func() (*topology.Graph, error) {
			return topology.ScaleFree(topology.ScaleFreeConfig{N: 100_000, Alpha: 2.5, MeanDegree: 20}, xrand.New(seed))
		}
	}
	cases := []struct {
		name  string
		build func() (*topology.Graph, error)
	}{
		{"sf-100k-7005", sf(7005)},
		{"sf-100k-7008", sf(7008)},
		{"regular-100k-d20", func() (*topology.Graph, error) {
			return topology.RandomRegular(100_000, 20, xrand.New(7005))
		}},
	}
	for _, c := range cases {
		g, err := c.build()
		if err != nil {
			panic(c.name + ": " + err.Error())
		}
		fmt.Printf("graph/%-19s %016x\n", c.name, hashGraph(g))
	}
}

// paperLines prints one line per registered paper experiment, in registry
// order: the FNV-1a hash of its Quick-preset output bytes. paper/all hashes
// the concatenation of those outputs, the same bytes the end-to-end
// benchmark's paper-quick fingerprint covers.
func paperLines() {
	all := fnv.New64a()
	var buf bytes.Buffer
	for _, e := range experiments.All() {
		buf.Reset()
		if err := e.Run(experiments.Quick, &buf); err != nil {
			panic(e.ID + ": " + err.Error())
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		all.Write(buf.Bytes())
		fmt.Printf("paper/%-19s %016x\n", e.ID, h.Sum64())
	}
	fmt.Printf("paper/%-19s %016x\n", "all", all.Sum64())
}

func poisson() credit.Pricing {
	p, err := credit.NewPoissonPricing(1.5, 0, xrand.New(9))
	if err != nil {
		panic(err)
	}
	return p
}

// runMarket produces the case's Result: a plain run by default, the
// crash/snapshot/restore drill under -resume. Each phase rebuilds the
// config from scratch via mk, as a real crash recovery would (the snapshot
// restores mutable state; the config — graph, policies, pricing — is
// reconstructed).
func runMarket(mk func() market.Config, resume bool) (*market.Result, error) {
	if !resume {
		return market.Run(mk())
	}
	// Clean run: count the events a full run delivers.
	m, err := market.NewSim(mk())
	if err != nil {
		return nil, err
	}
	if err := m.Start(); err != nil {
		return nil, err
	}
	events := 0
	for m.Step() {
		events++
	}
	if _, err := m.Finish(); err != nil {
		return nil, err
	}
	// Crash run: stop a third of the way in and checkpoint.
	m, err = market.NewSim(mk())
	if err != nil {
		return nil, err
	}
	if err := m.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < events/3 && m.Step(); i++ {
	}
	data := m.Snapshot()
	// Resume run: a fresh simulation restores the snapshot and finishes.
	m, err = market.RestoreSim(mk(), data)
	if err != nil {
		return nil, err
	}
	m.Run()
	return m.Finish()
}

// runShard is runMarket's sharded-kernel counterpart: a plain run by
// default; under -resume a clean run counts the windows, a second run
// checkpoints a third of the way in, and a fresh engine restores and
// finishes.
func runShard(mk func() shard.Config, resume bool) (*shard.Result, error) {
	if !resume {
		return shard.Run(mk())
	}
	sim, err := shard.NewSim(mk())
	if err != nil {
		return nil, err
	}
	if err := sim.Start(); err != nil {
		return nil, err
	}
	windows := 0
	for sim.StepWindow() {
		windows++
	}
	if _, err := sim.Finish(); err != nil {
		return nil, err
	}
	sim, err = shard.NewSim(mk())
	if err != nil {
		return nil, err
	}
	if err := sim.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < windows/3 && sim.StepWindow(); i++ {
	}
	data := sim.Snapshot()
	sim, err = shard.RestoreSim(mk(), data)
	if err != nil {
		return nil, err
	}
	for sim.StepWindow() {
	}
	return sim.Finish()
}

// memChain is the drill's in-memory chain sink. It copies every link:
// the checkpointer recycles its sealed buffer once a write returns.
type memChain struct {
	chain [][]byte
}

func (m *memChain) WriteBase(data []byte) error {
	m.chain = [][]byte{append([]byte(nil), data...)}
	return nil
}

func (m *memChain) WriteDelta(index int, data []byte) error {
	m.chain = append(m.chain, append([]byte(nil), data...))
	return nil
}

// runShardDelta is the delta-chain crash/resume drill: a clean run counts
// the windows; a second run checkpoints through a pipelined delta
// checkpointer (short re-base cadence, so the chain holds a base plus
// several deltas) and crashes a third of the way in; a fresh engine
// restores the base+deltas chain. The restored state must be
// byte-identical to a full snapshot of the crashed run at the same
// barrier, and the finished run's fingerprint is printed for the
// default-vs-delta-resume diff.
func runShardDelta(mk func() shard.Config) (*shard.Result, error) {
	sim, err := shard.NewSim(mk())
	if err != nil {
		return nil, err
	}
	if err := sim.Start(); err != nil {
		return nil, err
	}
	windows := 0
	for sim.StepWindow() {
		windows++
	}
	if _, err := sim.Finish(); err != nil {
		return nil, err
	}

	sim, err = shard.NewSim(mk())
	if err != nil {
		return nil, err
	}
	if err := sim.Start(); err != nil {
		return nil, err
	}
	sink := &memChain{}
	ck := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{
		Delta:       true,
		RebaseEvery: 4,
	})
	crash := windows / 3
	every := crash / 8
	if every < 1 {
		every = 1
	}
	for i := 0; i < crash && sim.StepWindow(); i++ {
		if (i+1)%every == 0 && i+1 < crash {
			if err := ck.Checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	if err := ck.Checkpoint(); err != nil {
		return nil, err
	}
	if err := ck.Close(); err != nil {
		return nil, err
	}
	full := sim.Snapshot() // reference full capture at the crash barrier

	restored, err := shard.RestoreChain(mk(), sink.chain)
	if err != nil {
		return nil, err
	}
	if got := restored.Snapshot(); !bytes.Equal(got, full) {
		return nil, fmt.Errorf("chain restore (%d links) diverges from the full snapshot: %d vs %d bytes",
			len(sink.chain), len(got), len(full))
	}
	for restored.StepWindow() {
	}
	return restored.Finish()
}

// runStreaming is runMarket's streaming counterpart.
func runStreaming(mk func() streaming.Config, resume bool) (*streaming.Result, error) {
	if !resume {
		return streaming.Run(mk())
	}
	m, err := streaming.NewSim(mk())
	if err != nil {
		return nil, err
	}
	if err := m.Start(); err != nil {
		return nil, err
	}
	events := 0
	for m.Step() {
		events++
	}
	if _, err := m.Finish(); err != nil {
		return nil, err
	}
	m, err = streaming.NewSim(mk())
	if err != nil {
		return nil, err
	}
	if err := m.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < events/3 && m.Step(); i++ {
	}
	data := m.Snapshot()
	m, err = streaming.RestoreSim(mk(), data)
	if err != nil {
		return nil, err
	}
	m.Run()
	return m.Finish()
}

// shardLines prints the sharded-kernel fingerprint lines. These print in
// every mode: the default mode pins the sharded model's outputs (which
// must also be identical for every -shards value), -resume runs the
// sharded crash/snapshot/restore drill, and -delta-resume runs the
// delta-chain variant — so diffing any mode against the default asserts
// byte-identical recovery for the sharded engine.
func shardLines(shards int, resume, deltaResume bool) {
	cases := []struct {
		name    string
		preset  string
		routing shard.Routing // non-uniform: override the preset's mode
	}{
		{"market-churn", "flash-crowd", shard.RouteUniform},
		{"market-policy", "demurrage", shard.RouteUniform},
		{"streaming-tax", "taxed-streaming", shard.RouteUniform},
		// Routing-mode coverage: demurrage above routes degree-weighted and
		// adaptive-tax routes availability-weighted per its preset (static
		// mirrors — both presets are churn-free); diurnal-churn exercises
		// the thinned rejoin shaping; the flash-crowd override composes
		// availability routing WITH churn, so the barrier's EWMA mirror
		// publish and heavy-tree patching are on the hashed path. Each line
		// must hash identically for every -shards value and survive both
		// resume drills.
		{"market-avail", "adaptive-tax", shard.RouteUniform},
		{"market-diurnal", "diurnal-churn", shard.RouteUniform},
		{"market-avail-churn", "flash-crowd", shard.RouteAvailability},
	}
	for _, c := range cases {
		sc, err := scenario.Get(c.preset)
		if err != nil {
			panic(c.name + ": " + err.Error())
		}
		routing := c.routing
		mk := func() shard.Config {
			cfg, err := sc.ShardConfig(scenario.ScaleQuick, shards)
			if err != nil {
				panic(c.name + ": " + err.Error())
			}
			if routing != shard.RouteUniform {
				cfg.Routing.Mode = routing
			}
			return cfg
		}
		var res *shard.Result
		if deltaResume {
			res, err = runShardDelta(mk)
		} else {
			res, err = runShard(mk, resume)
		}
		if err != nil {
			panic(c.name + ": " + err.Error())
		}
		fmt.Printf("shard/%-19s %016x\n", c.name, res.Fingerprint())
	}
}

func main() {
	resume := flag.Bool("resume", false, "run every combo through the crash/snapshot/restore drill and print the resumed hashes (scenario and paper lines omitted)")
	deltaResume := flag.Bool("delta-resume", false, "run only the shard/* combos, through the delta-chain crash/resume drill: checkpoint via a pipelined base+deltas chain, crash a third in, restore the chain (asserting byte-identity with a full snapshot) and finish")
	fast := flag.Bool("fast", false, "override the market combos to Fenwick-backed fast sampling")
	shards := flag.Int("shards", 1, "lane count for the shard/* lines; the sharded kernel's invariance contract makes the printed hashes identical for any value")
	flag.Parse()

	if *deltaResume {
		// Only the sharded kernel has delta chains; print just its lines,
		// in the default mode's format, for the default-vs-delta diff.
		shardLines(*shards, false, true)
		return
	}

	// override applies the -fast sweep axis to a market config.
	override := func(mk func() market.Config) func() market.Config {
		return func() market.Config {
			cfg := mk()
			if *fast {
				cfg.FastSampling = true
			}
			return cfg
		}
	}

	tax := func() *credit.TaxPolicy {
		t, err := credit.NewTaxPolicy(0.25, 15)
		if err != nil {
			panic(err)
		}
		return t
	}
	churn := &market.ChurnConfig{ArrivalRate: 0.5, MeanLifespan: 150, AttachDegree: 4, Preferential: true}
	fastChurn := &market.ChurnConfig{ArrivalRate: 0.5, MeanLifespan: 150, AttachDegree: 4, FastAttach: true}
	// Case names are part of the printed lines, so they stay fixed across
	// commits even where they name since-retired engine options
	// ("calendar+incgini", "incgini").
	cases := []struct {
		name string
		mk   func() market.Config
	}{
		{"baseline", func() market.Config {
			return market.Config{Graph: marketGraph(80, 8, 1), InitialWealth: 20, DefaultMu: 1, Horizon: 400, SnapshotTimes: []float64{100, 300}, Seed: 2}
		}},
		{"tax+inject", func() market.Config {
			return market.Config{Graph: marketGraph(80, 8, 3), InitialWealth: 20, DefaultMu: 1, Horizon: 400, Tax: tax(), Inject: &market.InjectConfig{Amount: 2, Period: 60}, Seed: 4}
		}},
		{"churn", func() market.Config {
			return market.Config{Graph: marketGraph(80, 8, 5), InitialWealth: 20, DefaultMu: 1, Horizon: 400, Churn: churn, Seed: 6}
		}},
		{"degree", func() market.Config {
			return market.Config{Graph: scaleFree(200, 7), InitialWealth: 15, DefaultMu: 1, Horizon: 300, Routing: market.RouteDegreeWeighted, Seed: 8}
		}},
		{"degree+churn", func() market.Config {
			return market.Config{Graph: scaleFree(200, 9), InitialWealth: 15, DefaultMu: 1, Horizon: 300, Routing: market.RouteDegreeWeighted, Churn: churn, Seed: 10}
		}},
		{"avail", func() market.Config {
			return market.Config{Graph: scaleFree(200, 11), InitialWealth: 15, DefaultMu: 1, Horizon: 300, Routing: market.RouteAvailability, Seed: 12}
		}},
		{"avail+churn+tax", func() market.Config {
			return market.Config{Graph: scaleFree(200, 13), InitialWealth: 15, DefaultMu: 1, Horizon: 300, Routing: market.RouteAvailability, Churn: churn, Tax: tax(), Seed: 14}
		}},
		{"freeriders", func() market.Config {
			return market.Config{Graph: scaleFree(200, 15), InitialWealth: 15, DefaultMu: 1, Horizon: 300, FreeRiderFrac: 0.25, Seed: 16}
		}},
		{"calendar+incgini", func() market.Config {
			return market.Config{Graph: scaleFree(400, 17), InitialWealth: 15, DefaultMu: 1, Horizon: 300, Churn: fastChurn, Seed: 18}
		}},
		{"dynamic", func() market.Config {
			return market.Config{Graph: marketGraph(80, 8, 19), InitialWealth: 20, DefaultMu: 1, Horizon: 400, Spending: credit.DynamicSpending{M: 20}, Seed: 20}
		}},
	}
	for _, c := range cases {
		res, err := runMarket(override(c.mk), *resume)
		if err != nil {
			panic(c.name + ": " + err.Error())
		}
		fmt.Printf("market/%-18s %016x\n", c.name, hashMarket(res))
	}

	scases := []struct {
		name string
		mk   func() streaming.Config
	}{
		{"baseline", func() streaming.Config {
			return streaming.Config{Graph: marketGraph(60, 8, 21), StreamRate: 2, DelaySeconds: 6, UploadCap: 2, DownloadCap: 3, SourceSeeds: 3, InitialWealth: 12, HorizonSeconds: 150, Seed: 22}
		}},
		{"hetero+drain", func() streaming.Config {
			return streaming.Config{Graph: marketGraph(60, 8, 23), StreamRate: 2, DelaySeconds: 6, UploadCap: 1, DownloadCap: 3, SourceSeeds: 3, InitialWealth: 12, HorizonSeconds: 150, UploadCapOf: map[int]int{1: 8, 2: 8}, Departures: []streaming.Departure{{ID: 1, AtSecond: 60}, {ID: 5, AtSecond: 90}}, Seed: 24}
		}},
		{"incgini", func() streaming.Config {
			return streaming.Config{Graph: scaleFree(200, 25), StreamRate: 1, DelaySeconds: 10, UploadCap: 1, DownloadCap: 2, SourceSeeds: 5, InitialWealth: 12, HorizonSeconds: 150, Seed: 26}
		}},
		{"poisson-pricing", func() streaming.Config {
			return streaming.Config{Graph: marketGraph(60, 8, 27), StreamRate: 2, DelaySeconds: 6, UploadCap: 2, DownloadCap: 3, SourceSeeds: 3, InitialWealth: 20, HorizonSeconds: 150, Pricing: poisson(), Seed: 28}
		}},
	}
	for _, c := range scases {
		res, err := runStreaming(c.mk, *resume)
		if err != nil {
			panic(c.name + ": " + err.Error())
		}
		fmt.Printf("streaming/%-15s %016x\n", c.name, hashStreaming(res))
	}

	// Policy-engine modes. These lines extend the battery; the combos
	// above keep their exact pre-engine fingerprints (the default-mode
	// byte-compatibility contract).
	adaptive := func() *policy.AdaptiveTax {
		at, err := policy.NewAdaptiveTax(policy.AdaptiveTaxConfig{
			TargetGini: 0.3, Gain: 0.5, MaxRate: 0.7, Threshold: 15,
		})
		if err != nil {
			panic(err)
		}
		return at
	}
	demurrage := func() *policy.Demurrage {
		d, err := policy.NewDemurrage(0.05, 30)
		if err != nil {
			panic(err)
		}
		return d
	}
	subsidy := func(fromPot bool) *policy.NewcomerSubsidy {
		s, err := policy.NewNewcomerSubsidy(5, fromPot)
		if err != nil {
			panic(err)
		}
		return s
	}
	incomeTax := func() *policy.IncomeTax {
		it, err := policy.NewIncomeTax(0.3, 12)
		if err != nil {
			panic(err)
		}
		return it
	}
	injection := func() *policy.Injection {
		in, err := policy.NewInjection(1)
		if err != nil {
			panic(err)
		}
		return in
	}
	pcases := []struct {
		name string
		mk   func() market.Config
	}{
		{"adaptive-tax", func() market.Config {
			return market.Config{Graph: scaleFree(200, 29), InitialWealth: 15, DefaultMu: 1, Horizon: 300, Routing: market.RouteAvailability,
				Policies: []policy.Policy{adaptive(), policy.NewRedistribute()}, PolicyEpoch: 10, Seed: 30}
		}},
		{"demurrage+subsidy", func() market.Config {
			return market.Config{Graph: scaleFree(200, 31), InitialWealth: 15, DefaultMu: 1, Horizon: 300, Churn: fastChurn,
				Policies: []policy.Policy{demurrage(), subsidy(true), policy.NewRedistribute()}, PolicyEpoch: 15, Seed: 32}
		}},
		{"binomial-tax+legacy-inject", func() market.Config {
			return market.Config{Graph: marketGraph(80, 8, 33), InitialWealth: 20, DefaultMu: 1, Horizon: 400,
				Inject:   &market.InjectConfig{Amount: 1, Period: 60},
				Policies: []policy.Policy{incomeTax(), policy.NewRedistribute()}, Seed: 34}
		}},
	}
	for _, c := range pcases {
		res, err := runMarket(override(c.mk), *resume)
		if err != nil {
			panic(c.name + ": " + err.Error())
		}
		fmt.Printf("market-policy/%-25s %016x\n", c.name, hashMarket(res))
	}

	spcases := []struct {
		name string
		mk   func() streaming.Config
	}{
		{"tax+inject", func() streaming.Config {
			return streaming.Config{Graph: marketGraph(60, 8, 35), StreamRate: 2, DelaySeconds: 6, UploadCap: 1, DownloadCap: 3, SourceSeeds: 3, InitialWealth: 12, HorizonSeconds: 150, UploadCapOf: map[int]int{1: 8, 2: 8},
				Policies: []policy.Policy{incomeTax(), policy.NewRedistribute(), injection()}, PolicyEpoch: 20, Seed: 36}
		}},
		{"demurrage+drain", func() streaming.Config {
			return streaming.Config{Graph: marketGraph(60, 8, 37), StreamRate: 2, DelaySeconds: 6, UploadCap: 2, DownloadCap: 3, SourceSeeds: 3, InitialWealth: 12, HorizonSeconds: 150, Departures: []streaming.Departure{{ID: 1, AtSecond: 60}},
				Policies: []policy.Policy{demurrage(), policy.NewRedistribute()}, PolicyEpoch: 25, Seed: 38}
		}},
	}
	for _, c := range spcases {
		res, err := runStreaming(c.mk, *resume)
		if err != nil {
			panic(c.name + ": " + err.Error())
		}
		fmt.Printf("streaming-policy/%-22s %016x\n", c.name, hashStreamingPolicy(res))
	}

	shardLines(*shards, *resume, false)
	graphLines()

	if *resume {
		// Scenario presets and paper experiments are config sugar over the
		// same simulators; the drill above already covers their mechanism
		// space.
		return
	}
	for _, name := range []string{
		"flash-crowd", "free-rider-mix", "diurnal-churn", "seeder-drain",
		"adaptive-tax", "demurrage", "newcomer-subsidy", "taxed-streaming",
	} {
		out, err := scenario.RunNamed(name, scenario.ScaleQuick)
		if err != nil {
			panic(name + ": " + err.Error())
		}
		var sum uint64
		if out.Market != nil {
			sum = hashMarket(out.Market)
		} else {
			sum = hashStreaming(out.Streaming)
		}
		fmt.Printf("scenario/%-16s %016x\n", name, sum)
	}
	paperLines()
}
