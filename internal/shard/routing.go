package shard

// Weighted routing on the sharded kernel: Fenwick samplers over neighbor
// weights, fed by barrier-frozen weight mirrors.
//
// The single-threaded market engine routes spends by degree or
// availability with an O(log degree) Fenwick sampler per spender. The
// sharded kernel cannot share that structure — availability is mutable
// cross-shard state — so it splits the problem along the same line as the
// alive bitmap:
//
//   - weight[] is a dense per-peer weight mirror, written ONLY at window
//     barriers by the coordinator (publishWeights folds the window's
//     lifecycle deltas through the availability EWMA in canonical order)
//     and read freely by every lane during the window. In-window sampling
//     therefore touches zero shared mutable state and takes zero locks,
//     and the frozen-weight staleness (routing sees availability as of
//     the window start) is the exact analog of the liveness staleness the
//     engine already defines.
//
//   - Under availability routing, a light peer (degree <= HeavyDegree)
//     stores no tree: PickNeighbor builds one from the mirror into the
//     lane's grow-once scratch and descends it. A light tree is a pure
//     function of the mirror, so building it at pick time draws exactly
//     what any stored copy would, and there is no staleness to track.
//
//   - Hubs (degree > HeavyDegree) keep stored trees, packed back to back
//     in a slab sized to the hub rows alone (degree+1 floats per hub, slot
//     0 caching the total). An O(degree) build per pick would make hub
//     picks linear, so hub trees are patched incrementally at the barrier
//     instead: one O(log degree) FenAdd per changed neighbor, applied in
//     the canonical delta order on the coordinator. Incremental float
//     accumulation is order-sensitive, so the canonical order is what
//     keeps hub trees — and with them every sampled destination —
//     bit-identical across shard counts, and it is why HeavyDegree is
//     results-affecting.
//
//   - Degree routing stores every peer's tree (at RowStart(g)+g): degree
//     weights never change, so each tree is built once during New and
//     only ever read.
//
// Hub trees, the mirror and the EWMA state serialize with the lane
// partitions (full and delta checkpoints alike), so restores resume the
// exact byte stream. Degree-routing state is a pure function of the
// graph, rebuilt by New, and never serialized.

import (
	"fmt"
	"math"

	"creditp2p/internal/xrand"
)

// Routing selects how workloads pick spend destinations among neighbors.
type Routing uint8

const (
	// RouteUniform picks uniformly at random — the pre-routing behavior,
	// byte-identical to it.
	RouteUniform Routing = iota
	// RouteDegree weights neighbors by their overlay degree (static).
	RouteDegree
	// RouteAvailability weights neighbors by Floor plus an exponential
	// moving average of their online time (dynamic, refreshed at
	// barriers from lifecycle deltas).
	RouteAvailability
)

// String names the mode for reports and goldenhash lines.
func (m Routing) String() string {
	switch m {
	case RouteUniform:
		return "uniform"
	case RouteDegree:
		return "degree"
	case RouteAvailability:
		return "availability"
	}
	return "unknown"
}

// RoutingConfig parameterizes weighted destination sampling.
type RoutingConfig struct {
	// Mode selects the weighting; RouteUniform (the zero value) keeps the
	// historical uniform sampler and allocates nothing.
	Mode Routing
	// Tau is the availability EWMA time constant; 0 selects 100.
	Tau float64
	// Floor is the availability weight floor, keeping every neighbor
	// reachable (and every tree total positive); 0 selects 0.05.
	Floor float64
	// HeavyDegree is the availability hub threshold: peers with more
	// neighbors than this keep barrier-patched stored trees, the rest
	// build theirs at pick time; 0 selects 1024.
	HeavyDegree int
	// NaiveRescan replaces the Fenwick samplers with a per-spend
	// O(degree) weight rescan — the reference baseline the perf gates
	// measure against. Same frozen-EWMA state, continuous decay at pick
	// time; a distinct mode with its own (still shard-count-invariant)
	// byte stream.
	NaiveRescan bool
}

const (
	defaultRoutingTau   = 100.0
	defaultRoutingFloor = 0.05
	// defaultHeavyDegree trades barrier patch bandwidth against the
	// pick-time build: every directed edge into a hub above the threshold
	// costs one O(log degree) patch per neighbor lifecycle transition,
	// while every peer below it pays an O(degree) build per pick.
	// Scale-free overlays put a large fraction of edges on hubs, so a low
	// threshold drowns the barrier in patch traffic for trees that are
	// rarely sampled before they are patched again; 1024 keeps hub picks
	// O(log degree) while cutting patch bandwidth to the few true hubs.
	defaultHeavyDegree = 1024
)

// routingState is the engine's resident routing data. For RouteUniform
// every slice is nil; for NaiveRescan the slab and hub tables are nil (the
// rescan reads the EWMA state directly).
type routingState struct {
	mode     Routing
	naive    bool
	tau      float64
	floor    float64
	heavyDeg int

	// weight is the barrier-frozen per-peer routing weight mirror, in
	// the trees' float32 domain: pick-time trees build from the mirror
	// and hub trees patch by mirror deltas, so keeping both in one
	// precision makes them agree to the last bit of the stored weights.
	weight []float32
	// score/scoreT carry the availability EWMA: score is the EWMA of the
	// online indicator as of the peer's last lifecycle transition at
	// scoreT. Both change only in publishWeights (canonical order).
	score  []float64
	scoreT []float64
	// fenSlab packs the stored Fenwick trees over neighbor weights: every
	// peer's under degree routing (peer g's at RowStart(g)+g), only the
	// hubs' under availability routing (hub h's at hubOff[h]). A tree of
	// degree d spans d+1 floats with leaves at 1..d; slot 0 — unused by
	// the Fenwick layout — caches the tree's weight total, so a pick reads
	// the total and the descent nodes from the same cache lines.
	fenSlab []float32
	// hubs lists the availability run's peers above HeavyDegree in
	// ascending order; hubOff[h] is hub h's slab offset, and
	// hubOff[len(hubs)] the slab length.
	hubs   []int32
	hubOff []int64
	// heavyRow/heavyHub/heavyLeaf form the heavy-edge CSR for availability
	// runs: for each peer g, heavyHub[heavyRow[g]:heavyRow[g+1]] lists the
	// hub index (into hubs) of each of g's hub neighbors and heavyLeaf the
	// matching Fenwick leaf (g's position in that hub's row, precomputed so
	// a barrier patch lands on the right leaf without binary-searching the
	// hub's neighbor row). Scale-free graphs keep this sparse — only a
	// minority of directed edges point at hubs — so the patch pass walks a
	// few entries per lifecycle delta instead of whole adjacency rows.
	heavyRow  []int64
	heavyHub  []int32
	heavyLeaf []int32
	// wdelta is publishWeights' grow-once scratch: the mirror-weight
	// change of each lifecycle delta, aligned with lifeScratch, computed
	// by the fold and consumed by the tree-patch pass.
	wdelta []float32
}

// validateRouting normalizes defaults and rejects contradictions.
func validateRouting(cfg *Config) error {
	r := &cfg.Routing
	if r.Mode > RouteAvailability {
		return fmt.Errorf("%w: Routing.Mode=%d", ErrBadConfig, r.Mode)
	}
	if r.Tau < 0 || r.Floor < 0 || r.HeavyDegree < 0 {
		return fmt.Errorf("%w: Routing={Tau:%v Floor:%v HeavyDegree:%d}: negative parameter",
			ErrBadConfig, r.Tau, r.Floor, r.HeavyDegree)
	}
	if r.NaiveRescan && r.Mode == RouteUniform {
		return fmt.Errorf("%w: Routing.NaiveRescan needs a weighted Mode", ErrBadConfig)
	}
	if r.Tau == 0 {
		r.Tau = defaultRoutingTau
	}
	if r.Floor == 0 {
		r.Floor = defaultRoutingFloor
	}
	if r.HeavyDegree == 0 {
		r.HeavyDegree = defaultHeavyDegree
	}
	return nil
}

// initRouting allocates the routing state and builds the stored trees.
// Runs during New, after the lanes exist. Each tree is a pure function of
// the initial mirror, so the lanes' parallel build of the degree slab is
// deterministic.
func (e *Engine) initRouting() {
	rt := &e.rt
	rt.mode = e.cfg.Routing.Mode
	if rt.mode == RouteUniform {
		return
	}
	rt.naive = e.cfg.Routing.NaiveRescan
	rt.tau = e.cfg.Routing.Tau
	rt.floor = e.cfg.Routing.Floor
	rt.heavyDeg = e.cfg.Routing.HeavyDegree
	rt.weight = make([]float32, e.n)
	if rt.mode == RouteDegree {
		for g := int32(0); g < int32(e.n); g++ {
			rt.weight[g] = float32(e.part.Degree(g))
		}
		if rt.naive {
			return
		}
		rt.fenSlab = make([]float32, e.part.Edges()+int64(e.n))
		e.parallel(func(ln *Lane) {
			for g := ln.lo; g < ln.hi; g++ {
				fenFill(e.tree(g), e.part.Neighbors(g), rt.weight)
			}
		})
		return
	}
	rt.score = make([]float64, e.n)
	rt.scoreT = make([]float64, e.n)
	for g := 0; g < e.n; g++ {
		// Every peer starts online with a saturated EWMA.
		rt.score[g] = 1
		rt.weight[g] = float32(rt.floor + 1)
	}
	if rt.naive {
		return
	}
	rt.hubOff = []int64{0}
	for g := int32(0); g < int32(e.n); g++ {
		if d := e.part.Degree(g); d > rt.heavyDeg {
			rt.hubs = append(rt.hubs, g)
			rt.hubOff = append(rt.hubOff, rt.hubOff[len(rt.hubs)-1]+int64(d)+1)
		}
	}
	rt.fenSlab = make([]float32, rt.hubOff[len(rt.hubs)])
	for _, g := range rt.hubs {
		fenFill(e.tree(g), e.part.Neighbors(g), rt.weight)
	}
	// The heavy-edge CSR is the transpose of the hubs' rows: count each
	// peer's hub neighbors, prefix-sum, then scatter (hub, leaf) pairs
	// with heavyRow[v] as v's fill cursor. Hubs scatter in ascending
	// order, so each row lists its hubs ascending.
	rt.heavyRow = make([]int64, e.n+1)
	for _, g := range rt.hubs {
		for _, v := range e.part.Neighbors(g) {
			rt.heavyRow[v+1]++
		}
	}
	for g := 0; g < e.n; g++ {
		rt.heavyRow[g+1] += rt.heavyRow[g]
	}
	rt.heavyHub = make([]int32, rt.heavyRow[e.n])
	rt.heavyLeaf = make([]int32, rt.heavyRow[e.n])
	for h, g := range rt.hubs {
		for leaf, v := range e.part.Neighbors(g) {
			k := rt.heavyRow[v]
			rt.heavyHub[k] = int32(h)
			rt.heavyLeaf[k] = int32(leaf)
			rt.heavyRow[v]++
		}
	}
	// Each cursor now sits at the next row's start; shift them back.
	copy(rt.heavyRow[1:], rt.heavyRow[:e.n])
	rt.heavyRow[0] = 0
}

// treeStart returns the slab offset of the first stored tree of a peer at
// or after g (g may be N). A span of peers' stored trees is therefore
// fenSlab[treeStart(lo):treeStart(hi)].
func (e *Engine) treeStart(g int32) int64 {
	rt := &e.rt
	if rt.mode == RouteDegree {
		return e.part.RowStart(g) + int64(g)
	}
	return rt.hubOff[searchI32(rt.hubs, g)]
}

// tree returns stored peer g's slab tree.
func (e *Engine) tree(g int32) []float32 {
	off := e.treeStart(g)
	return e.rt.fenSlab[off : off+int64(e.part.Degree(g))+1]
}

// fenFill builds the Fenwick tree over nbrs' mirror weights into tr
// (len(nbrs)+1 floats), caching the total in tr[0], and returns tr.
func fenFill(tr []float32, nbrs []int32, weight []float32) []float32 {
	for i, nb := range nbrs {
		tr[i+1] = weight[nb]
	}
	tr[0] = xrand.FenBuild(tr)
	return tr
}

// publishWeights is the barrier's mirror-publish step: fold the window's
// lifecycle deltas (already in canonical (time, peer) order) through the
// availability EWMA, updating the weight mirror, then patch the hub trees
// each changed weight feeds. Both passes run serially on the coordinator:
// the fold is a few thousand cheap float ops per window, and the patch
// pass walks only each changed peer's heavy-edge CSR entries. Per-peer
// EWMA folds and per-tree patch sequences are canonical-order
// subsequences of the delta list, so results are bit-identical across
// shard counts.
func (e *Engine) publishWeights() {
	rt := &e.rt
	if cap(rt.wdelta) < len(e.lifeScratch) {
		rt.wdelta = make([]float32, len(e.lifeScratch))
	}
	wd := rt.wdelta[:len(e.lifeScratch)]
	for i, le := range e.lifeScratch {
		g := le.g
		death := g < 0
		if death {
			g = -1 - g
		}
		// EWMA of the online indicator over [scoreT, t): the peer was
		// online up to a death and offline up to a rejoin.
		d := math.Exp((rt.scoreT[g] - le.t) / rt.tau)
		s := rt.score[g] * d
		if death {
			s += 1 - d
		}
		rt.score[g] = s
		rt.scoreT[g] = le.t
		w := rt.floor
		if !death {
			w += s
		}
		nw := float32(w)
		wd[i] = nw - rt.weight[g]
		rt.weight[g] = nw
		e.lanes[e.part.ShardOf(g)].markPeer(g)
	}
	if rt.naive {
		return
	}
	// Until a first capture exists the dirty maps are dead state — any
	// chain opens with a base that clears them — so checkpoint-free runs
	// skip the marking writes entirely.
	doMark := e.captureGen != 0
	for i, le := range e.lifeScratch {
		if wd[i] == 0 {
			continue
		}
		g := le.g
		if g < 0 {
			g = -1 - g
		}
		for k := rt.heavyRow[g]; k < rt.heavyRow[g+1]; k++ {
			h := rt.heavyHub[k]
			tr := rt.fenSlab[rt.hubOff[h]:rt.hubOff[h+1]]
			xrand.FenAdd(tr, int(rt.heavyLeaf[k]), wd[i])
			tr[0] += wd[i]
			if doMark {
				hub := rt.hubs[h]
				e.lanes[e.part.ShardOf(hub)].markPeer(hub)
			}
		}
	}
}

// PickNeighbor draws a spend destination for peer g from nbrs (g's
// neighbor row) using the run's routing mode and the peer's own stream.
// Exactly one logical draw per pick in every mode, so workload streams
// stay aligned across modes' code paths. Owner-lane only.
func (ln *Lane) PickNeighbor(t float64, g int32, nbrs []int32, r *xrand.SplitMix64) int32 {
	e := ln.e
	rt := &e.rt
	if rt.mode == RouteUniform {
		return nbrs[r.Intn(len(nbrs))]
	}
	if rt.naive {
		return ln.naivePick(t, nbrs, r)
	}
	var tr []float32
	if rt.mode == RouteDegree || len(nbrs) > rt.heavyDeg {
		tr = e.tree(g)
	} else {
		if cap(ln.fen) <= len(nbrs) {
			ln.fen = make([]float32, len(nbrs)+1)
		}
		tr = fenFill(ln.fen[:len(nbrs)+1], nbrs, rt.weight)
	}
	u := r.Float64() * float64(tr[0])
	return nbrs[xrand.FenFind(tr, u)]
}

// naivePick is the reference O(degree) rescan: recompute every neighbor
// weight (availability decays continuously to the pick time), then walk
// the prefix sums. Reads only barrier-frozen state, so it is as
// shard-count-invariant as the Fenwick path — just slow.
func (ln *Lane) naivePick(t float64, nbrs []int32, r *xrand.SplitMix64) int32 {
	e := ln.e
	rt := &e.rt
	if cap(ln.pick) < len(nbrs) {
		ln.pick = make([]float64, len(nbrs))
	}
	pick := ln.pick[:len(nbrs)]
	total := 0.0
	for i, nb := range nbrs {
		var w float64
		if rt.mode == RouteDegree {
			w = float64(e.part.Degree(nb))
		} else {
			w = rt.floor
			if e.AliveEpoch(nb) {
				w += rt.score[nb] * math.Exp((rt.scoreT[nb]-t)/rt.tau)
			}
		}
		pick[i] = w
		total += w
	}
	u := r.Float64() * total
	for i, w := range pick {
		u -= w
		if u < 0 {
			return nbrs[i]
		}
	}
	return nbrs[len(nbrs)-1]
}

// RoutingWeight returns peer g's barrier-frozen routing weight — the
// mirror value in-window sampling is proportional to (1 for RouteUniform).
// Tests use it as the exact reference distribution.
func (e *Engine) RoutingWeight(g int32) float64 {
	if e.rt.mode == RouteUniform {
		return 1
	}
	return float64(e.rt.weight[g])
}

// RoutingMode reports the run's routing mode.
func (e *Engine) RoutingMode() Routing { return e.rt.mode }

// routingDigest folds the results-affecting routing parameters into the
// snapshot config digest. HeavyDegree is results-affecting: hub trees
// accumulate patches in canonical order while light trees build fresh
// from the mirror, and the two float histories differ in rounding.
func (e *Engine) routingDigest(h uint64) uint64 {
	rt := &e.rt
	h = fnvU64(h, uint64(rt.mode))
	if rt.mode == RouteUniform {
		return h
	}
	h = fnvU64(h, math.Float64bits(rt.tau))
	h = fnvU64(h, math.Float64bits(rt.floor))
	h = fnvU64(h, uint64(rt.heavyDeg))
	if rt.naive {
		h = fnvU64(h, 0x6e61697665) // "naive"
	}
	return h
}

// searchI32 returns the index of the first element >= x in the ascending
// slice a (x's index when present).
func searchI32(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
