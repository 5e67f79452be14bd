// Package shard is the multi-core simulation kernel: it partitions the
// peer population, the overlay topology and the per-peer event clocks
// into P per-shard lanes that advance in lockstep windows under a
// conservative synchronization boundary, so one run uses P cores while
// staying deterministic — and, stronger, shard-count-invariant.
//
// # Execution model
//
// Peers are split into P contiguous index blocks (topology.Partition).
// Each lane owns its block's state — balances, per-peer random streams,
// liveness flags and each peer's two clocks (the workload clock and, with
// churn, the lifecycle clock) — and runs one fixed window [t, t+W] with no
// access to any other lane's mutable state. A lane sweeps its peers in
// index order and runs each peer's clocks up to the window end before it
// moves to the next peer: there is no event queue. Effects that reach
// another peer (credit payments, always; a peer never mutates a neighbor
// directly) are buffered as des.XEvents in per-destination-shard merge
// buffers. At the window barrier the buffered effects are applied in the
// canonical (time, source peer, intra-instant seq) order, lifecycle
// deltas are folded into the shared epoch-liveness bitmap, policy epochs
// fire, and metrics sample — then every lane proceeds into the next
// window together. This is classic conservative synchronization with a
// fixed lookahead of W: no lane ever observes an effect "from the
// future" of another lane, because all cross-peer effects materialize
// only at barriers.
//
// The peer-major sweep is exact, not an approximation of time-ordered
// dispatch. Inside a window a peer's decisions read only its own stream
// and balance, window-start liveness and barrier-frozen routing weights,
// and every credit it is owed lands at the barrier, so the time order
// across peers is inert: interleaving two peers' events differently
// changes no draw and no balance. What the barrier does observe in time
// order — the policy path's transfer sequence and the lifecycle deltas —
// each lane sorts at the end of its sweep, still inside the parallel
// dispatch phase, so the barrier merges the same sorted runs a
// time-ordered dispatch would have produced.
//
// # Determinism and shard-count invariance
//
// Two properties are maintained, both pinned by tests:
//
//  1. Same seed, same config, same P → byte-identical results, regardless
//     of goroutine scheduling. Lanes share no mutable state inside a
//     window, and every barrier step is ordered canonically.
//  2. Same seed, same config, *different* P → byte-identical results.
//     Every stochastic decision is drawn from the deciding peer's own
//     xrand.SplitMix64 stream (seeded from the run seed and the peer's
//     global index), every cross-peer read goes through the epoch
//     bitmap (state as of the window start — equally stale for a
//     same-shard neighbor as for a remote one), and every cross-peer
//     write is buffered to the barrier in an order keyed only by
//     peer-local quantities. Nothing observable depends on where the
//     shard boundaries fall, so P is purely a performance knob.
//
// The price of invariance is a bounded staleness semantics: a payment
// lands in the recipient's balance at the next barrier (not
// mid-window), and routing sees liveness as of the window start. Both
// are the standard conservative-parallel-simulation trade and are part
// of this engine's model definition, not an approximation of the
// single-threaded kernel: Shards=1 runs the exact same model through
// the exact same code path and produces the exact same bytes as any
// other shard count.
//
// Cross-shard credit still flows through the policy engine's shared-pot
// policy.Host surface: income hooks run per merged transfer at the
// barrier, epoch hooks at their quantized epoch marks, so tax,
// demurrage, subsidy and injection policies run unchanged.
package shard

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"creditp2p/internal/cacheline"
	"creditp2p/internal/des"
	"creditp2p/internal/policy"
	"creditp2p/internal/snapshot"
	"creditp2p/internal/stats"
	"creditp2p/internal/topology"
	"creditp2p/internal/trace"
	"creditp2p/internal/xrand"
)

// ErrBadConfig reports an invalid engine configuration.
var ErrBadConfig = errors.New("shard: invalid config")

// ChurnConfig is the sharded kernel's peer-lifecycle model: each peer
// alternates between online spells of mean MeanLifespan and offline
// spells of mean MeanDowntime (both exponential, drawn from the peer's
// own stream, so lifecycles are shard-count-invariant). Departure burns
// the peer's balance; rejoining mints a fresh endowment — the same
// open-economy supply dynamics as the single-threaded kernel's churn,
// over a fixed peer-slot population.
type ChurnConfig struct {
	MeanLifespan float64
	MeanDowntime float64

	// RejoinRate, when non-nil, shapes the rejoin process as an
	// inhomogeneous Poisson first-arrival: a departed peer rejoins at
	// absolute-time rate RejoinRate(t) instead of the constant
	// 1/MeanDowntime. Delays are drawn by Lewis–Shedler thinning against
	// RejoinEnvelope from the peer's own stream, so time-varying arrival
	// regimes (flash crowds, diurnal cycles) stay shard-count-invariant.
	RejoinRate func(t float64) float64
	// RejoinEnvelope returns a piecewise-constant majorant of RejoinRate:
	// a rate >= RejoinRate(u) for all u in [t, until). Required with
	// RejoinRate.
	RejoinEnvelope func(t float64) (rate, until float64)
	// RateDigest identifies the shape functions in the snapshot config
	// digest (functions cannot be hashed), so restores refuse a run whose
	// churn shaping differs.
	RateDigest uint64
}

// Enabled reports whether the lifecycle process runs.
func (c ChurnConfig) Enabled() bool { return c.MeanLifespan > 0 && c.MeanDowntime > 0 }

// Workload is the per-lane behavior the engine drives — the sharded
// analogs of the single-threaded kernel's sim.Workload. Each live peer
// runs one self-rescheduling workload clock: the engine stores the time of
// the peer's next workload event and calls OnEvent when the clock comes
// due. All hooks run on the lane that owns the peer; implementations must
// confine themselves to the peer's own state, the engine's
// epoch-consistent views, and the peer's own random stream.
type Workload interface {
	// Setup allocates global workload state. It runs single-threaded
	// before any lane starts; per-peer stream draws made here (role
	// assignment) count as part of each peer's deterministic stream
	// prefix.
	Setup(e *Engine) error
	// Arm starts peer g's workload clock at time t — at start and after a
	// rejoin — and returns the time of its first event.
	Arm(ln *Lane, g int32, t float64) float64
	// OnEvent handles peer g's workload event at time t and returns the
	// time of its next one (+Inf for none). A departure stops the clock
	// without a call.
	OnEvent(ln *Lane, g int32, t float64) float64
	// Finish folds the workload's counters into the result.
	Finish(res *Result)
	// Digest returns a stable identity of the workload's configuration,
	// folded into the snapshot digest so restores refuse mismatches.
	Digest() uint64
	// SaveState / LoadState serialize the workload's mutable state for
	// checkpoint/restore at a window boundary. Both full and delta
	// captures carry it whole, so it should stay small (per-lane
	// counters); per-peer clocks are the engine's.
	SaveState(w *snapshot.Writer)
	LoadState(r *snapshot.Reader) error
}

// Config parameterizes a sharded run.
type Config struct {
	// Graph is the overlay; node ids must be dense 0..N-1. The engine
	// snapshots it into a topology.Partition during New and drops its
	// reference, so callers can release the graph to the collector.
	Graph *topology.Graph
	// Shards is the lane count P (>= 1).
	Shards int
	// Window is the conservative-sync window length W; 0 selects
	// Horizon/128. W is a model parameter (it sets effect-visibility
	// granularity), deliberately independent of P.
	Window float64
	// Horizon is the simulated duration.
	Horizon float64
	// Seed derives every stream in the run.
	Seed int64
	// InitialWealth is each peer's starting endowment.
	InitialWealth int64
	// SampleEvery is the metrics cadence, quantized up to barriers;
	// 0 selects Horizon/100.
	SampleEvery float64
	// Churn enables the peer lifecycle process.
	Churn ChurnConfig
	// Policies is the economic policy pipeline; hooks run at barriers.
	Policies []policy.Policy
	// PolicyEpoch is the engine epoch period (quantized up to barriers);
	// 0 disables epoch hooks.
	PolicyEpoch float64
	// Routing selects how workloads sample spend destinations.
	Routing RoutingConfig
	// Workload is the lane behavior.
	Workload Workload
}

// lifeEvent is one buffered lifecycle delta, applied to the epoch bitmap
// at the barrier in (time, peer) order.
type lifeEvent struct {
	t float64
	g int32
}

// Peer dirty-segment granularity: peerSegSize peers per segment. A
// segment's bal+rng+flags+next spans total ~12.5 KB (16.5 KB with the
// lifecycle clock). Segments are lane-local (anchored at the lane's lo),
// so they never straddle a partition boundary and each lane marks its
// own bitmap race-free during dispatch; coordinator-side mutations
// (merged deliveries, policy transfers) mark the destination's lane
// single-threaded at barriers.
const (
	peerSegShift = 9
	peerSegSize  = 1 << peerSegShift
)

// Lane is one shard's execution context: its block of peers, the
// per-destination-shard outboxes, the lane-local slices of the metric
// accumulators, and scratch. Workload hooks receive the lane they run on.
//
// Lanes write their own records on every event from different cores, so
// each lane's hot state owns its cache lines: the struct opens and closes
// with a pad, and the small per-lane arrays it writes in-window (dirty
// words, histogram, outbox headers) come from cacheline.Slice.
type Lane struct {
	_ cacheline.Pad
	e *Engine
	// S is the shard index.
	S int
	// lo, hi bound the lane's global peer indices [lo, hi).
	lo, hi int32
	// out[d] buffers effects destined for shard d this window.
	out []des.MergeBuffer
	// deaths/births are this window's lifecycle deltas.
	deaths, births []lifeEvent
	// hist is the lane's balance histogram over its live peers: hist[b]
	// live peers hold exactly b credits. Merged across lanes at barriers
	// for the exact global Gini. hist, liveN and supply are derived from
	// the per-peer arrays, so snapshots do not store them.
	hist []int64
	// liveN / supply track the lane's live-peer count and balance sum.
	liveN  int
	supply int64
	// minted/burned account lifecycle endowments and burns plus
	// lost-in-flight credits applied by this lane.
	minted, burned int64
	// transfers / crossTransfers / lost count applied effects.
	transfers, crossTransfers, lostCount uint64
	lostAmount                           int64
	// fired counts the events (workload and lifecycle) the lane has run.
	fired uint64
	// pick is the naive-rescan mode's recycled weight scratch and fen the
	// pick-time Fenwick tree scratch (both grow-once to the lane's max
	// observed degree).
	pick []float64
	fen  []float32
	// dirty tracks which peer segments of this lane's partition were
	// touched since the last state capture — the delta-checkpoint
	// bookkeeping. Segment k covers global peers [lo+k*peerSegSize,
	// lo+(k+1)*peerSegSize) ∩ [lo, hi).
	dirty snapshot.DirtyBits
	// busy is the lane's dispatch time in the current window, folded
	// into Timings by the coordinator after the dispatch phase.
	busy time.Duration
	_    cacheline.Pad
}

// markPeer flags the dirty segment holding global peer g, which must be
// owned by this lane.
func (ln *Lane) markPeer(g int32) { ln.dirty.Mark(int(g-ln.lo) >> peerSegShift) }

// Engine coordinates P lanes through lockstep windows.
type Engine struct {
	cfg  Config
	part *topology.Partition
	n    int
	p    int

	window      float64
	horizon     float64
	sampleEvery float64
	polEpoch    float64

	// Global per-peer state, partitioned by index range: inside a window
	// each slice element is touched only by its owner lane.
	bal   []int64
	rng   []xrand.SplitMix64
	flags []uint8 // bit 0: currently alive (owner-lane view)
	// next[g] is peer g's workload clock: the time of its next workload
	// event, +Inf while offline. life[g] is its lifecycle clock: the next
	// departure while online, the rejoin while offline, +Inf for none.
	// life is nil without churn.
	next []float64
	life []float64

	// aliveEpoch is the shared liveness bitmap as of the window start:
	// written only at barriers, read freely by every lane during the
	// window. All routing-time liveness checks go through it — for local
	// and remote peers alike — which is what makes routing outcomes
	// shard-count-invariant.
	aliveEpoch []uint64

	// rt is the weighted-routing state: the barrier-frozen weight mirror
	// and the stored Fenwick trees (see routing.go).
	rt routingState

	lanes []*Lane
	// giniHists is giniNow's reused list of the lanes' histograms.
	giniHists [][]int64

	// Coordinator state (barrier-only).
	now        float64
	bNow       float64 // barrier time policy hooks observe as Now()
	running    bool    // policy.Host.Running: started and not finished
	nextSample float64
	nextPol    float64
	pot        int64
	engine     *policy.Engine
	polRNG     *xrand.RNG
	joins      uint64
	departures uint64
	windows    uint64

	gini       *trace.Series
	population *trace.Series
	supply     *trace.Series

	// Barrier scratch, all recycled across windows: steady-state barriers
	// allocate nothing (pinned by TestBarrierSteadyStateZeroAlloc and the
	// ShardMarketLargePolicy allocs guard). The slabs grow once to their
	// high-water occupancy and are trimmed back every trimEvery windows if
	// a traffic spike left them more than 4x oversized.
	lifeScratch []lifeEvent
	lifeRuns    [][]lifeEvent
	lifePos     []int
	lifeHW      int
	mergeAll    []des.XEvent
	mergeHW     int
	runScratch  [][]des.XEvent
	merger      des.Merger
	host        engineHost
	// warm sinks applyMerged's read-ahead loads so the compiler keeps
	// them; the value is meaningless and never read.
	warm uint32
	// dispatchFn / applyFn are the per-window lane closures, built once:
	// a capture-free closure costs nothing per call, while one capturing
	// the window end would be heap-allocated every window (it escapes into
	// parallel's goroutines). They read the window end from bNow.
	dispatchFn func(ln *Lane)
	applyFn    func(ln *Lane)

	timings Timings

	// captureGen counts state captures (full or delta). Any capture
	// clears the dirty maps, so a delta is only valid relative to the
	// capture it observed; the checkpointer re-bases when the counter
	// moved underneath it (someone else snapshotted mid-chain).
	captureGen uint64

	started  bool
	finished bool
}

// trimEvery is the window cadence of the high-water buffer trim.
const trimEvery = 64

// aliveBit is the per-peer flag bit holding the owner-lane liveness
// view. Flag bytes are written only by the owner lane in-window and the
// coordinator at barriers, so the bits never race.
const aliveBit = uint8(1)

// New validates the configuration and builds an engine. Call Start (or
// Run) to arm the initial events; a freshly built engine is also the
// target of a state restore.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: Shards=%d", ErrBadConfig, cfg.Shards)
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadConfig)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("%w: Horizon=%v", ErrBadConfig, cfg.Horizon)
	}
	if cfg.InitialWealth < 0 {
		return nil, fmt.Errorf("%w: InitialWealth=%d", ErrBadConfig, cfg.InitialWealth)
	}
	if cfg.Workload == nil {
		return nil, fmt.Errorf("%w: nil workload", ErrBadConfig)
	}
	if cfg.Window < 0 || cfg.Window > cfg.Horizon {
		return nil, fmt.Errorf("%w: Window=%v with Horizon=%v", ErrBadConfig, cfg.Window, cfg.Horizon)
	}
	if (cfg.Churn.MeanLifespan > 0) != (cfg.Churn.MeanDowntime > 0) {
		return nil, fmt.Errorf("%w: churn needs both MeanLifespan and MeanDowntime (got MeanLifespan=%v MeanDowntime=%v)",
			ErrBadConfig, cfg.Churn.MeanLifespan, cfg.Churn.MeanDowntime)
	}
	if cfg.Churn.RejoinRate != nil {
		if cfg.Churn.RejoinEnvelope == nil {
			return nil, fmt.Errorf("%w: Churn.RejoinRate needs Churn.RejoinEnvelope", ErrBadConfig)
		}
		if !cfg.Churn.Enabled() {
			return nil, fmt.Errorf("%w: Churn.RejoinRate needs an enabled lifecycle process", ErrBadConfig)
		}
	}
	if err := validateRouting(&cfg); err != nil {
		return nil, err
	}
	part, err := topology.NewPartition(cfg.Graph, cfg.Shards)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		part:    part,
		n:       part.N(),
		p:       cfg.Shards,
		window:  cfg.Window,
		horizon: cfg.Horizon,
	}
	// The partition snapshot replaces the graph; drop the engine's
	// reference so a caller-released graph is collectable.
	e.cfg.Graph = nil
	if e.window == 0 {
		e.window = e.horizon / 128
	}
	e.sampleEvery = cfg.SampleEvery
	if e.sampleEvery <= 0 {
		e.sampleEvery = e.horizon / 100
	}
	e.polEpoch = cfg.PolicyEpoch
	if len(cfg.Policies) > 0 {
		e.engine = policy.NewEngine(cfg.Policies...)
	}

	e.bal = make([]int64, e.n)
	e.rng = make([]xrand.SplitMix64, e.n)
	e.flags = make([]uint8, e.n)
	e.next = make([]float64, e.n)
	if cfg.Churn.Enabled() {
		e.life = make([]float64, e.n)
	}
	e.aliveEpoch = make([]uint64, (e.n+63)/64)
	for i := 0; i < e.n; i++ {
		e.rng[i] = xrand.NewSplitMix64(cfg.Seed, int64(i))
		e.bal[i] = cfg.InitialWealth
		e.flags[i] = aliveBit
		e.aliveEpoch[i>>6] |= 1 << (uint(i) & 63)
	}
	e.lanes = make([]*Lane, e.p)
	for s := 0; s < e.p; s++ {
		lo, hi := part.Range(s)
		ln := &Lane{
			e:     e,
			S:     s,
			lo:    lo,
			hi:    hi,
			out:   cacheline.Slice[des.MergeBuffer](e.p),
			liveN: int(hi - lo),
		}
		ln.supply = int64(hi-lo) * cfg.InitialWealth
		ln.minted = ln.supply
		ln.growHist(cfg.InitialWealth)
		ln.hist[cfg.InitialWealth] = int64(hi - lo)
		// Pre-size the dirty map so hot-path marks never allocate,
		// preserving the zero-alloc barrier contract.
		ln.dirty.Grow((int(hi-lo) + peerSegSize - 1) >> peerSegShift)
		e.lanes[s] = ln
	}
	e.polRNG = xrand.New(cfg.Seed ^ 0x5ca1ab1e)
	e.host.e = e
	e.initRouting()
	e.dispatchFn = func(ln *Lane) {
		t0 := time.Now()
		for d := range ln.out {
			ln.out[d].Reset()
		}
		ln.sweep(ln.e.bNow)
		ln.busy = time.Since(t0)
	}
	e.applyFn = func(ln *Lane) { ln.applyInbound() }
	// Pre-size the metric series to the whole run's sample count so
	// barrier-time samples never grow a backing array.
	samples := int(e.horizon/e.sampleEvery) + 3
	e.gini = presizedSeries("gini", samples)
	e.population = presizedSeries("population", samples)
	e.supply = presizedSeries("supply", samples)
	e.nextSample = 0
	e.nextPol = e.polEpoch
	if err := cfg.Workload.Setup(e); err != nil {
		return nil, err
	}
	return e, nil
}

// presizedSeries builds a series with capacity for n points.
func presizedSeries(name string, n int) *trace.Series {
	s := trace.NewSeries(name)
	s.Times = make([]float64, 0, n)
	s.Values = make([]float64, 0, n)
	return s
}

// Start sets every peer's initial clocks and records the t=0 sample.
func (e *Engine) Start() error {
	if e.started {
		return errors.New("shard: already started")
	}
	e.started = true
	// The initial population joins with Running() false, mirroring the
	// single-threaded kernels' OnJoin contract.
	if e.engine != nil {
		for g := int32(0); g < int32(e.n); g++ {
			e.engine.Joined(&e.host, g)
		}
	}
	e.running = true
	// Arming is deterministic per lane (ascending index); lifecycle draws
	// precede workload draws so each peer's stream prefix is fixed.
	for _, ln := range e.lanes {
		for g := ln.lo; g < ln.hi; g++ {
			if e.life != nil {
				e.life[g] = e.rng[g].Exponential(1 / e.cfg.Churn.MeanLifespan)
			}
			e.next[g] = e.cfg.Workload.Arm(ln, g, 0)
		}
	}
	e.sample(0)
	e.nextSample = e.sampleEvery
	return nil
}

// StepWindow advances one conservative-sync window: parallel lane
// execution to the next barrier, canonical effect merge, lifecycle and
// policy processing, sampling. It reports false once the horizon is
// reached.
func (e *Engine) StepWindow() bool {
	if !e.started || e.now >= e.horizon {
		return false
	}
	tEnd := e.now + e.window
	if tEnd > e.horizon {
		tEnd = e.horizon
	}
	e.bNow = tEnd
	// Phase 1 (dispatch): every lane sweeps its peers' events up to tEnd
	// in parallel. Lanes only touch their own partition of the peer state
	// plus the read-only epoch views, so the goroutine schedule cannot
	// influence results.
	t0 := time.Now()
	e.parallel(e.dispatchFn)
	t1 := time.Now()
	e.timings.Dispatch += t1.Sub(t0)
	var busyMax time.Duration
	for _, ln := range e.lanes {
		e.timings.LaneBusy += ln.busy
		busyMax = max(busyMax, ln.busy)
	}
	e.timings.LaneBusyMax += busyMax
	// Phases 2+3 (merge, apply): deliver the window's buffered effects.
	// Without a policy pipeline there is no merge — each lane applies its
	// own inbound buckets in parallel (delivery on disjoint destination
	// partitions commutes, so no canonical order is needed); with policies
	// the income hooks touch global state (pot, any peer), so the
	// coordinator k-way-merges every outbox into the one canonical
	// sequence and applies it in a single pass.
	if e.engine == nil {
		e.parallel(e.applyFn)
		e.timings.Apply += time.Since(t1)
	} else {
		e.collectMerged()
		t2 := time.Now()
		e.timings.Merge += t2.Sub(t1)
		e.applyMerged()
		e.timings.Apply += time.Since(t2)
	}
	// Phase 4 (churn): coordinator — lifecycle deltas into the epoch
	// bitmap (and policy join/depart hooks), weight-mirror publish, epoch
	// hooks, samples. The publish span accrues inside barrier; subtract it
	// here so Churn and Publish partition the phase.
	t3 := time.Now()
	pub0 := e.timings.Publish
	e.barrier(tEnd)
	e.timings.Churn += time.Since(t3) - (e.timings.Publish - pub0)
	e.now = tEnd
	e.windows++
	e.timings.Windows++
	if e.windows%trimEvery == 0 {
		e.trim()
	}
	return true
}

// trim releases slack capacity from every recycled barrier buffer whose
// backing array a traffic spike left more than 4x oversized relative to
// its recent high-water occupancy. Runs every trimEvery windows; in steady
// state it touches nothing.
func (e *Engine) trim() {
	for _, ln := range e.lanes {
		for d := range ln.out {
			ln.out[d].Trim()
		}
		ln.deaths = trimLife(ln.deaths)
		ln.births = trimLife(ln.births)
	}
	if c := cap(e.mergeAll); c > 64 && c > 4*e.mergeHW {
		e.mergeAll = make([]des.XEvent, 0, e.mergeHW)
	}
	e.mergeHW = 0
	if c := cap(e.lifeScratch); c > 64 && c > 4*e.lifeHW {
		e.lifeScratch = make([]lifeEvent, 0, e.lifeHW)
	}
	e.lifeHW = 0
	// Stale run pointers in runScratch's spare capacity would pin the
	// outbox arrays just trimmed above.
	clear(e.runScratch[:cap(e.runScratch)])
}

// trimLife shrinks a quiescent (logically empty) lifecycle buffer that has
// grown far beyond the trim window's needs.
func trimLife(ls []lifeEvent) []lifeEvent {
	if c := cap(ls); len(ls) == 0 && c > 64 {
		return nil
	}
	return ls
}

// Run executes the whole horizon and finishes.
func Run(cfg Config) (*Result, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.Start(); err != nil {
		return nil, err
	}
	for e.StepWindow() {
	}
	return e.Finish()
}

// parallel runs fn over every lane, on P goroutines when P > 1. The
// WaitGroup gives the coordinator a happens-before edge over all lane
// writes, and lanes one over the coordinator's barrier writes.
func (e *Engine) parallel(fn func(ln *Lane)) {
	if e.p == 1 {
		fn(e.lanes[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(e.p)
	for _, ln := range e.lanes {
		go func(ln *Lane) {
			defer wg.Done()
			fn(ln)
		}(ln)
	}
	wg.Wait()
}

// sweep runs the window's events, up to and including tEnd, peer by peer
// in index order: each peer's earlier clock fires while it is due, the
// lifecycle clock first on an exact tie. Afterwards the lane puts what
// the barrier consumes in time order into canonical order — its
// lifecycle deltas always, its outboxes on the policy path (the
// no-policy apply is order-free).
func (ln *Lane) sweep(tEnd float64) {
	e := ln.e
	wl := e.cfg.Workload
	next, life := e.next, e.life
	for g := ln.lo; g < ln.hi; g++ {
		fired := ln.fired
		for {
			if life != nil && life[g] <= next[g] {
				if life[g] > tEnd {
					break
				}
				ln.lifecycle(g, life[g])
			} else {
				if next[g] > tEnd {
					break
				}
				next[g] = wl.OnEvent(ln, g, next[g])
			}
			ln.fired++
		}
		// Any event may mutate its peer's state (balance, stream, flags,
		// clocks), so the peer's segment is dirty once one fires.
		if ln.fired != fired {
			ln.markPeer(g)
		}
	}
	if e.engine != nil {
		for d := range ln.out {
			ln.out[d].Sort()
		}
	}
	slices.SortFunc(ln.deaths, lifeCmp)
	slices.SortFunc(ln.births, lifeCmp)
}

// lifecycle fires peer g's lifecycle clock at time t: a departure while
// the peer is online, a rejoin while it is offline.
func (ln *Lane) lifecycle(g int32, t float64) {
	if ln.e.flags[g]&aliveBit != 0 {
		ln.depart(g, t)
	} else {
		ln.rejoin(g, t)
	}
}

// depart takes a peer offline: burn its balance, stop its workload clock,
// set the rejoin time, and queue the bitmap delta.
func (ln *Lane) depart(g int32, t float64) {
	e := ln.e
	e.flags[g] &^= aliveBit
	b := e.bal[g]
	ln.hist[b]--
	ln.liveN--
	ln.supply -= b
	ln.burned += b
	e.bal[g] = 0
	e.next[g] = math.Inf(1)
	e.life[g] = t + ln.rejoinDelay(g, t)
	// Deaths carry the encoded peer (-1-g) from the start, so the barrier
	// merge consumes the lane runs without a re-encode pass.
	ln.deaths = append(ln.deaths, lifeEvent{t: t, g: -1 - g})
}

// rejoinDelay draws the departed peer's offline spell from its own
// stream. Constant-rate churn is a single exponential; with RejoinRate
// set, the rejoin is the first arrival of an inhomogeneous Poisson
// process, drawn by Lewis–Shedler thinning against the envelope: advance
// through envelope segments with envelope-rate exponentials, accept each
// candidate with probability rate/envelope. Every draw comes from peer
// g's stream, so the spell — and the number of words consumed — is a pure
// function of (stream state, departure time), shard-count-invariant.
// Returns +Inf when the envelope reports no further arrivals (the peer
// never rejoins).
func (ln *Lane) rejoinDelay(g int32, t0 float64) float64 {
	e := ln.e
	c := &e.cfg.Churn
	r := &e.rng[g]
	if c.RejoinRate == nil {
		return r.Exponential(1 / c.MeanDowntime)
	}
	t := t0
	for {
		env, until := c.RejoinEnvelope(t)
		if env <= 0 {
			if until <= t || math.IsInf(until, 1) {
				return math.Inf(1)
			}
			t = until
			continue
		}
		d := r.Exponential(env)
		if t+d > until {
			t = until
			continue
		}
		t += d
		if r.Bernoulli(c.RejoinRate(t) / env) {
			return t - t0
		}
	}
}

// rejoin brings a peer back online with a fresh endowment. The lifespan
// is drawn before the workload re-arms, so each peer's stream is consumed
// in a fixed order.
func (ln *Lane) rejoin(g int32, t float64) {
	e := ln.e
	e.flags[g] |= aliveBit
	w := e.cfg.InitialWealth
	e.bal[g] = w
	ln.growHist(w)
	ln.hist[w]++
	ln.liveN++
	ln.supply += w
	ln.minted += w
	e.life[g] = t + e.rng[g].Exponential(1/e.cfg.Churn.MeanLifespan)
	e.next[g] = e.cfg.Workload.Arm(ln, g, t)
	ln.births = append(ln.births, lifeEvent{t: t, g: g})
}

// growHist widens the lane histogram to cover balance b.
func (ln *Lane) growHist(b int64) {
	for int64(len(ln.hist)) <= b {
		nw := int64(len(ln.hist)) * 2
		if nw < 64 {
			nw = 64
		}
		if nw <= b {
			nw = b + 1
		}
		t := cacheline.Slice[int64](int(nw))
		copy(t, ln.hist)
		ln.hist = t
	}
}

// histMove mirrors one balance change of a live peer on this lane.
func (ln *Lane) histMove(before, after int64) {
	ln.hist[before]--
	ln.growHist(after)
	ln.hist[after]++
}

// Spend moves amount credits from the live local peer src toward dst:
// src's balance is debited immediately, and the credit is buffered to
// land in dst's balance at the next barrier (or burn if dst is gone by
// then). seq disambiguates several spends one peer makes at the same
// instant. It reports false — consuming no state — when src cannot
// afford the amount.
func (ln *Lane) Spend(t float64, src, dst int32, seq uint32, amount int64) bool {
	e := ln.e
	if e.bal[src] < amount {
		return false
	}
	pre := e.bal[src]
	e.bal[src] = pre - amount
	ln.markPeer(src)
	ln.histMove(pre, pre-amount)
	ln.supply -= amount
	ln.out[e.part.ShardOf(dst)].Add(des.XEvent{
		Time: t, Src: src, Dst: dst, Seq: seq, Amount: amount,
	})
	ln.transfers++
	if e.part.ShardOf(dst) != ln.S {
		ln.crossTransfers++
	}
	return true
}

// applyInbound applies this window's effects destined for this lane, in
// in source-bucket order — the no-policy fast path, runnable in parallel
// because every write lands in this lane's partition. No canonical sort is
// needed here: without income hooks, delivery is commutative — balance
// credits add, histogram moves compose, and the dead-destination check
// reads alive flags that only change at barriers — so applying the buckets
// in any order produces bit-identical state. The policy path below cannot
// skip the sort, because income hooks observe pre-balances and the pot.
func (ln *Lane) applyInbound() {
	e := ln.e
	for _, src := range e.lanes {
		for _, xev := range src.out[ln.S].Events() {
			ln.deliver(xev)
		}
	}
}

// deliver lands one merged effect: credit the destination if it is still
// online, otherwise burn the in-flight amount.
func (ln *Lane) deliver(xev des.XEvent) {
	e := ln.e
	g := xev.Dst
	if e.flags[g]&aliveBit == 0 {
		ln.lostCount++
		ln.lostAmount += xev.Amount
		ln.burned += xev.Amount
		return
	}
	pre := e.bal[g]
	e.bal[g] = pre + xev.Amount
	ln.markPeer(g)
	ln.histMove(pre, pre+xev.Amount)
	ln.supply += xev.Amount
}

// collectMerged k-way-merges every lane's per-destination outboxes into
// the recycled mergeAll scratch in canonical (time, src, seq) order — the
// policy path's barrier merge. Each lane sorted its outboxes at the end of
// its sweep, in parallel, so the loser tree does O(M log K) work over the
// K = P² runs instead of re-sorting M events at O(M log M).
func (e *Engine) collectMerged() {
	e.runScratch = e.runScratch[:0]
	for _, src := range e.lanes {
		for d := range src.out {
			if evs := src.out[d].Events(); len(evs) > 0 {
				e.runScratch = append(e.runScratch, evs)
			}
		}
	}
	e.mergeAll = e.merger.Merge(e.mergeAll[:0], e.runScratch)
	if len(e.mergeAll) > e.mergeHW {
		e.mergeHW = len(e.mergeAll)
	}
	e.timings.MergedEvents += uint64(len(e.mergeAll))
}

// applyMerged lands the canonical sequence in one coordinator pass, so
// income hooks (which may touch the pot and any peer) observe the same
// sequence at every shard count.
func (e *Engine) applyMerged() {
	h := &e.host
	// Read-ahead distance for the destination state: bal and flags are
	// random-access at merged-event granularity, so at large populations
	// each delivery starts with a cache miss. Touching the destination a
	// few events early overlaps those misses with the deliveries in
	// between. The warm sink keeps the loads observable.
	const ahead = 8
	var warm uint32
	for i := range e.mergeAll {
		if j := i + ahead; j < len(e.mergeAll) {
			g := e.mergeAll[j].Dst
			warm += uint32(e.flags[g]) + uint32(e.bal[g])
		}
		xev := &e.mergeAll[i]
		dst := e.lanes[e.part.ShardOf(xev.Dst)]
		if e.flags[xev.Dst]&aliveBit == 0 {
			dst.lostCount++
			dst.lostAmount += xev.Amount
			dst.burned += xev.Amount
			continue
		}
		pre := e.bal[xev.Dst]
		e.bal[xev.Dst] = pre + xev.Amount
		dst.markPeer(xev.Dst)
		dst.histMove(pre, pre+xev.Amount)
		dst.supply += xev.Amount
		e.engine.Income(h, xev.Dst, pre, xev.Amount)
	}
	e.warm = warm
}

// barrier is the coordinator step at window end tB: lifecycle deltas are
// merged in (time, peer) order into the epoch bitmap (with policy
// join/depart hooks), due policy epochs fire, and due samples record.
func (e *Engine) barrier(tB float64) {
	e.lifeRuns = e.lifeRuns[:0]
	for _, ln := range e.lanes {
		if len(ln.deaths) > 0 {
			e.lifeRuns = append(e.lifeRuns, ln.deaths)
		}
		if len(ln.births) > 0 {
			e.lifeRuns = append(e.lifeRuns, ln.births)
		}
		e.departures += uint64(len(ln.deaths))
		e.joins += uint64(len(ln.births))
	}
	e.lifeScratch = mergeLife(e.lifeScratch[:0], e.lifeRuns, &e.lifePos)
	if len(e.lifeScratch) > e.lifeHW {
		e.lifeHW = len(e.lifeScratch)
	}
	for _, ln := range e.lanes {
		ln.deaths = ln.deaths[:0]
		ln.births = ln.births[:0]
	}
	var h *engineHost
	if e.engine != nil {
		h = &e.host
	}
	for _, le := range e.lifeScratch {
		if le.g < 0 { // death (encoded as -1-g)
			g := -1 - le.g
			e.aliveEpoch[g>>6] &^= 1 << (uint(g) & 63)
			if h != nil {
				e.engine.Departed(h, g)
			}
		} else {
			e.aliveEpoch[le.g>>6] |= 1 << (uint(le.g) & 63)
			if h != nil {
				e.engine.Joined(h, le.g)
			}
		}
	}
	if e.rt.mode == RouteAvailability {
		// Mirror publish: fold the same canonical delta sequence through
		// the availability EWMA, refreshing the frozen weights every lane
		// samples from next window.
		tP := time.Now()
		e.publishWeights()
		e.timings.Publish += time.Since(tP)
	}
	if e.engine != nil && e.polEpoch > 0 {
		for e.nextPol <= tB {
			e.engine.Epoch(h, tB)
			e.nextPol += e.polEpoch
		}
	}
	if tB >= e.nextSample || tB >= e.horizon {
		e.sample(tB)
		for e.nextSample <= tB {
			e.nextSample += e.sampleEvery
		}
	}
}

// mergeLife appends the (time, peer)-ordered merge of the lanes'
// lifecycle runs to dst. Deaths carry encoded negative peers, so same-time
// same-peer pairs order death-before-birth consistently (a peer cannot die
// and rejoin at the same instant under continuous draws, but the order
// must still be total). Runs are few — at most two per lane, each already
// ordered — so a linear head scan per output element beats any tree
// bookkeeping; posp is the recycled head-cursor scratch.
func mergeLife(dst []lifeEvent, runs [][]lifeEvent, posp *[]int) []lifeEvent {
	if len(runs) == 1 {
		return append(dst, runs[0]...)
	}
	pos := *posp
	if cap(pos) < len(runs) {
		pos = make([]int, len(runs))
		*posp = pos
	}
	pos = pos[:len(runs)]
	left := 0
	for i, r := range runs {
		pos[i] = 0
		left += len(r)
	}
	for ; left > 0; left-- {
		best := -1
		for i, r := range runs {
			if pos[i] >= len(r) {
				continue
			}
			if best < 0 || lifeCmp(r[pos[i]], runs[best][pos[best]]) < 0 {
				best = i
			}
		}
		dst = append(dst, runs[best][pos[best]])
		pos[best]++
	}
	return dst
}

// lifeCmp orders lifecycle deltas by (time, peer), a death before a
// birth of the same peer at the same instant.
func lifeCmp(a, b lifeEvent) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	ag, bg := a.g, b.g
	if ag < 0 {
		ag = -1 - ag
	}
	if bg < 0 {
		bg = -1 - bg
	}
	if c := cmp.Compare(ag, bg); c != 0 {
		return c
	}
	return cmp.Compare(a.g, b.g)
}

// sample records the metric series at time t from the lane accumulators.
func (e *Engine) sample(t float64) {
	g, _ := e.giniNow()
	e.gini.Add(t, g)
	live := 0
	var sup int64
	for _, ln := range e.lanes {
		live += ln.liveN
		sup += ln.supply
	}
	e.population.Add(t, float64(live))
	e.supply.Add(t, float64(sup+e.pot))
}

// giniNow computes the exact wealth Gini over all live peers from the
// lanes' balance histograms.
func (e *Engine) giniNow() (float64, bool) {
	hists := e.giniHists[:0]
	for _, ln := range e.lanes {
		hists = append(hists, ln.hist)
	}
	e.giniHists = hists
	return stats.GiniHist(hists...)
}

// Finish verifies conservation and assembles the result.
func (e *Engine) Finish() (*Result, error) {
	if e.finished {
		return nil, errors.New("shard: already finished")
	}
	if !e.started {
		return nil, errors.New("shard: not started")
	}
	e.finished = true
	e.running = false
	var sup, minted, burned, lostAmt int64
	var transfers, lost, events uint64
	live := 0
	for _, ln := range e.lanes {
		sup += ln.supply
		minted += ln.minted
		burned += ln.burned
		lostAmt += ln.lostAmount
		transfers += ln.transfers
		lost += ln.lostCount
		events += ln.fired
		live += ln.liveN
	}
	if sup+e.pot != minted-burned {
		return nil, fmt.Errorf("shard: conservation violated: supply %d + pot %d != minted %d - burned %d",
			sup, e.pot, minted, burned)
	}
	res := &Result{
		N:               e.n,
		Shards:          e.p,
		Horizon:         e.horizon,
		Events:          events,
		Transfers:       transfers,
		Joins:           e.joins,
		Departures:      e.departures,
		LostInFlight:    lost,
		LostAmount:      lostAmt,
		Minted:          minted,
		Burned:          burned,
		Pot:             e.pot,
		FinalSupply:     sup + e.pot,
		FinalPopulation: live,
		Gini:            e.gini,
		Population:      e.population,
		Supply:          e.supply,
		Counters:        map[string]uint64{},
	}
	res.FinalGini, _ = e.giniNow()
	if e.engine != nil {
		t := e.engine.Totals()
		res.TaxCollected = t.Collected
		res.TaxRedistributed = t.Redistributed
		res.Injected = t.Injected
	}
	e.cfg.Workload.Finish(res)
	return res, nil
}

// Stats are shard-layout diagnostics — deliberately outside Result,
// because they describe the partitioning (which varies with P), not the
// simulated economy (which does not).
type Stats struct {
	Shards         int
	Windows        uint64
	Transfers      uint64
	CrossTransfers uint64
	CrossFraction  float64 // fraction of directed overlay edges crossing shards
}

// RunStats reports the engine's shard-layout diagnostics.
func (e *Engine) RunStats() Stats {
	st := Stats{Shards: e.p, Windows: e.windows, CrossFraction: e.part.CrossFraction()}
	for _, ln := range e.lanes {
		st.Transfers += ln.transfers
		st.CrossTransfers += ln.crossTransfers
	}
	return st
}

// EventsFired returns the total events dispatched so far across all
// lanes — the cadence counter checkpoint drivers poll between windows.
func (e *Engine) EventsFired() uint64 {
	var n uint64
	for _, ln := range e.lanes {
		n += ln.fired
	}
	return n
}

// --- accessors for workloads ---

// N returns the peer count.
func (e *Engine) N() int { return e.n }

// Shards returns the lane count P.
func (e *Engine) Shards() int { return e.p }

// Seed returns the run seed.
func (e *Engine) Seed() int64 { return e.cfg.Seed }

// Horizon returns the simulated duration.
func (e *Engine) Horizon() float64 { return e.horizon }

// Partition exposes the shard-segmented overlay snapshot.
func (e *Engine) Partition() *topology.Partition { return e.part }

// Rand returns peer g's stream; only g's owner lane (or single-threaded
// setup) may advance it.
func (e *Engine) Rand(g int32) *xrand.SplitMix64 { return &e.rng[g] }

// Balance returns peer g's balance; only meaningful for the owner lane.
func (e *Engine) Balance(g int32) int64 { return e.bal[g] }

// Alive reports the owner-lane view of peer g's liveness.
func (e *Engine) Alive(g int32) bool { return e.flags[g]&aliveBit != 0 }

// AliveEpoch reports peer g's liveness as of the current window's start —
// the epoch-consistent view every routing decision must use, local and
// remote alike.
func (e *Engine) AliveEpoch(g int32) bool {
	return e.aliveEpoch[g>>6]&(1<<(uint(g)&63)) != 0
}

// Neighbors returns peer g's overlay neighborhood (ascending global
// indices, read-only).
func (e *Engine) Neighbors(g int32) []int32 { return e.part.Neighbors(g) }

// Lanes returns the lanes' execution contexts; tests and diagnostics
// only.
func (e *Engine) Lanes() []*Lane { return e.lanes }
