// Package streaming simulates a mesh-pull P2P live-streaming system with
// credit-based chunk trading — the protocol-level substrate of the paper's
// evaluation (Sec. III-A, VI), modeled on UUSee-like systems. A source
// generates stream chunks and seeds a few peers; peers buy missing window
// chunks from neighbors that hold them, paying the seller's quoted price;
// sellers earn credits they can spend on their own downloads.
//
// Unlike the queue-granularity market simulator, this model captures the
// protocol feedback the paper's Fig. 1 relies on: a bankrupt peer cannot
// buy, soon has nothing fresh to sell, loses its income, and its playback
// and spending rate collapse — the condensation failure mode in the wild.
//
// The swarm is a sim.Workload driven by kernel ticks (one per second): the
// shared kernel (internal/sim) owns the dense peer table, the ledger
// binding, the metrics pipeline and peer teardown — planned Departures
// model a seeder drain, with the departing peer's credits burned and its
// chunks gone. Peer state is on a strict memory diet for million-peer
// swarms: the per-peer record is one 64-byte struct (liveness, ledger slot
// and flat price mirrored from the kernel so the trading pass touches a
// single cache line per peer), chunk windows and buffer-map sample lists
// are int32 segments of two shared slabs addressed by computed offsets (no
// per-peer slice headers), and the per-round trading pass runs without map
// lookups or allocations.
package streaming

import (
	"errors"
	"fmt"
	"math"

	"creditp2p/internal/credit"
	"creditp2p/internal/des"
	"creditp2p/internal/policy"
	"creditp2p/internal/sim"
	"creditp2p/internal/stats"
	"creditp2p/internal/topology"
	"creditp2p/internal/trace"
)

// ErrBadConfig is returned for invalid configurations.
var ErrBadConfig = errors.New("streaming: invalid config")

// Departure schedules one planned peer teardown: the peer leaves at the
// start of round AtSecond, its credits are burned and its chunks vanish —
// the building block of the seeder-drain regime (high-inventory peers
// leaving a swarm that depends on them).
type Departure struct {
	// ID is the overlay id of the departing peer.
	ID int
	// AtSecond is the round at whose start the peer leaves.
	AtSecond int
}

// Config describes one streaming-market simulation. Time advances in
// one-second rounds.
type Config struct {
	// Graph is the overlay topology (typically scale-free, mean degree 20).
	Graph *topology.Graph
	// StreamRate is the number of chunks the source emits per second.
	StreamRate int
	// DelaySeconds is the playback delay: chunk k's deadline is
	// k/StreamRate + DelaySeconds. The buffer window spans the chunks
	// between playhead and the live edge.
	DelaySeconds int
	// UploadCap and DownloadCap bound per-peer chunks moved per second.
	UploadCap, DownloadCap int
	// UploadCapOf optionally overrides UploadCap per peer, modeling
	// heterogeneous access bandwidth (broadband vs DSL peers) — the
	// asymmetric-utilization substrate of a realistic swarm. Peers not in
	// the map use UploadCap.
	UploadCapOf map[int]int
	// SourceSeeds is how many randomly chosen peers receive each fresh
	// chunk directly (and free) from the source.
	SourceSeeds int
	// InitialWealth is the per-peer credit endowment c.
	InitialWealth int64
	// Pricing quotes per-chunk prices (uniform 1 credit by default).
	Pricing credit.Pricing
	// Departures lists planned peer teardowns (seeder drain). Seeding
	// pushes and buffer probes aimed at a departed peer are wasted, as
	// they would be in a real swarm.
	Departures []Departure
	// HorizonSeconds is the simulated duration.
	HorizonSeconds int
	// MeasureStartSeconds opens the measurement window for spending rates
	// and continuity; zero means half the horizon.
	MeasureStartSeconds int
	// ProbesPerNeighbor bounds how many buffer-map entries a buyer samples
	// per neighbor each round (limited gossip knowledge); zero means 6.
	ProbesPerNeighbor int
	// Policies are economic policy stages (income taxation,
	// redistribution, injection, demurrage, ...) run by the kernel's
	// policy engine — the same implementations the market workload uses.
	// Every paid chunk transfer flows through the pipeline's income hook.
	// Empty keeps the swarm policy-free (byte-identical to configurations
	// predating the engine).
	Policies []policy.Policy
	// PolicyEpoch is the engine's epoch period in seconds for epoch-driven
	// stages; zero disables epochs.
	PolicyEpoch float64
	// Seed drives all randomness.
	Seed int64
}

func (c *Config) validate() error {
	if c.Graph == nil || c.Graph.NumNodes() < 2 {
		return fmt.Errorf("%w: need at least 2 peers", ErrBadConfig)
	}
	if c.StreamRate < 1 {
		return fmt.Errorf("%w: stream rate %d", ErrBadConfig, c.StreamRate)
	}
	if c.DelaySeconds < 1 {
		return fmt.Errorf("%w: delay %d", ErrBadConfig, c.DelaySeconds)
	}
	if c.UploadCap < 1 || c.DownloadCap < 1 {
		return fmt.Errorf("%w: caps %d/%d", ErrBadConfig, c.UploadCap, c.DownloadCap)
	}
	if c.SourceSeeds < 1 || c.SourceSeeds > c.Graph.NumNodes() {
		return fmt.Errorf("%w: source seeds %d", ErrBadConfig, c.SourceSeeds)
	}
	if c.InitialWealth < 0 {
		return fmt.Errorf("%w: initial wealth %d", ErrBadConfig, c.InitialWealth)
	}
	if c.HorizonSeconds < c.DelaySeconds+2 {
		return fmt.Errorf("%w: horizon %d too short", ErrBadConfig, c.HorizonSeconds)
	}
	// Chunk ids live in int32 window rings; a run emits at most
	// (HorizonSeconds+1)*StreamRate ids (plus the pre-roll below zero).
	if int64(c.HorizonSeconds+c.DelaySeconds+2)*int64(c.StreamRate) > math.MaxInt32/2 {
		return fmt.Errorf("%w: %d chunks overflow the int32 chunk-id space",
			ErrBadConfig, c.HorizonSeconds*c.StreamRate)
	}
	if c.Pricing == nil {
		c.Pricing = credit.UniformPricing{Credits: 1}
	}
	if c.MeasureStartSeconds <= 0 || c.MeasureStartSeconds >= c.HorizonSeconds {
		c.MeasureStartSeconds = c.HorizonSeconds / 2
	}
	if c.ProbesPerNeighbor <= 0 {
		c.ProbesPerNeighbor = 6
	}
	for _, d := range c.Departures {
		if !c.Graph.HasNode(d.ID) {
			return fmt.Errorf("%w: departure of unknown peer %d", ErrBadConfig, d.ID)
		}
		if d.AtSecond < 0 || d.AtSecond >= c.HorizonSeconds {
			return fmt.Errorf("%w: departure of peer %d at %d outside [0, %d)", ErrBadConfig, d.ID, d.AtSecond, c.HorizonSeconds)
		}
	}
	if c.PolicyEpoch < 0 || math.IsNaN(c.PolicyEpoch) {
		return fmt.Errorf("%w: policy epoch %v", ErrBadConfig, c.PolicyEpoch)
	}
	for i, p := range c.Policies {
		if p == nil {
			return fmt.Errorf("%w: nil policy at pipeline position %d", ErrBadConfig, i)
		}
	}
	return nil
}

// Result aggregates the outcome of one run. The per-peer maps cover the
// peers alive at the end of the run; departed peers are gone from the
// economy, accounts included.
type Result struct {
	// SpendingRate maps peer id to credits spent per second within the
	// measurement window — Fig. 1's y-axis.
	SpendingRate map[int]float64
	// DownloadRate maps peer id to chunks bought per second in the window.
	DownloadRate map[int]float64
	// Continuity maps peer id to the fraction of deadline chunks that were
	// present at playback within the window (streaming quality).
	Continuity map[int]float64
	// FinalWealth maps peer id to closing balance.
	FinalWealth map[int]int64
	// GiniSpending is the Gini index of SpendingRate — the paper's
	// condensation indicator for Fig. 1 (0.9 condensed vs 0.1 healthy).
	GiniSpending float64
	// GiniWealth is the Gini index of FinalWealth.
	GiniWealth float64
	// WealthGini is the wealth-Gini time series (sampled once per 100
	// rounds).
	WealthGini *trace.Series
	// ChunksTraded counts paid peer-to-peer chunk transfers.
	ChunksTraded uint64
	// ChunksSeeded counts free source pushes.
	ChunksSeeded uint64
	// Stalls counts chunks missed at their playback deadline (window).
	Stalls uint64
	// Departures counts planned peer teardowns executed.
	Departures uint64
	// TaxCollected and TaxRedistributed report the policy engine's
	// taxation activity — the same counters the market Result carries.
	TaxCollected, TaxRedistributed int64
	// Injected counts credits minted by policy stages.
	Injected int64
}

// speer is the streaming workload's per-peer record, parallel to the
// kernel's dense peer slab: exactly the hot trading state, 64 bytes, so a
// buyer's probe of a seller touches one line of per-peer state plus the
// sampled list/ring entries. Liveness, the ledger slot and the flat price
// quote are mirrored from the kernel (updated at join/teardown), and the
// window ring and buffer-map sample list are slab segments addressed by
// the peer index — no per-peer slice headers, no per-peer allocations.
type speer struct {
	// spent counts credits spent inside the measurement window.
	spent int64
	// price is the seller's flat per-chunk quote (flatPrice mode only).
	price int64
	// acct mirrors the kernel peer's dense ledger slot.
	acct   int32
	upCap  int32
	upUsed int32
	// downUsed is the download capacity consumed this round.
	downUsed int32
	// nbrOff/nbrLen address the peer's neighbor segment of the shared
	// neighbor slab (the overlay is static for the swarm's lifetime).
	nbrOff uint32
	nbrLen uint32
	// listLen is the live length of the peer's haveList slab segment.
	listLen int32
	// haveCount is the number of chunks currently held in the window.
	haveCount int32
	// bought/played/missed are measurement-window counters.
	bought int32
	played int32
	missed int32
	// alive mirrors the kernel's liveness bit (false after teardown).
	alive bool
}

// swarm carries the flat state shared by the round phases.
type swarm struct {
	cfg   Config
	k     *sim.Kernel
	peers []speer
	ids   []int // dense index -> overlay id at start
	// ringLen is the window ring size: the smallest power of two covering
	// the chunk lifetime (DelaySeconds+1)*StreamRate, so the slot of a
	// chunk is a mask instead of a modulo.
	ringLen  int
	ringMask int
	ringOff  int // added to chunk ids so pre-roll chunks index >= 0
	// rings is the shared window-ring slab: peer px owns
	// rings[px*ringLen : (px+1)*ringLen]. rings[slot] holds the id of the
	// possessed chunk occupying the slot, or noChunk. Chunks live at most
	// (DelaySeconds+1)*StreamRate ids before eviction, so live chunks map
	// to distinct slots; storing the id keeps possession checks exact even
	// for stale haveList entries whose slot a newer chunk has taken over.
	rings []int32
	// lists is the shared haveList slab (listCap per peer): the ring's
	// mirror for deterministic random sampling (buffer-map probes);
	// evicted entries are pruned lazily.
	lists   []int32
	listCap int
	// fresh mirrors the last freshLen entries of every peer's haveList
	// (fresh[px*freshLen + idx&freshMask] == lists[base+idx] for idx in
	// the list's tail). Fresh-tail probes — the hottest reads of the
	// trading pass — hit this dense, cache-resident slab instead of a
	// random line of the full list slab. Values are identical either way,
	// so the mirror cannot change results.
	fresh []int32
	// useFresh is true when the probe span fits the mirror
	// (4*StreamRate <= freshLen).
	useFresh bool
	// empty, busy and full are per-peer skip bitsets, small enough to stay
	// cache-resident, mirroring exactly the per-seller skip conditions of
	// the trading pass (listLen == 0, upUsed > 0, upUsed >= upCap) so a
	// skipped seller costs a bit test instead of a 64-byte record load.
	// dead mirrors torn-down peers (upCap == 0): the round reset seeds
	// full from it.
	empty, busy, full, dead []uint64
	// nbrSlab backs every peer's resolved neighbor indices.
	nbrSlab []int32
	// flatPrice marks per-seller flat quotes resolved into speer.price;
	// price-per-chunk schemes keep the Pricing interface.
	flatPrice bool
	pricing   credit.Pricing
	// departAt maps a round to the peers torn down at its start, in
	// Config.Departures order.
	departAt map[int][]int32
	// engine is the economic policy pipeline (nil when Policies is empty):
	// paid chunk transfers route through its income hook, the kernel
	// drives its epoch.
	engine *policy.Engine
	order  []int32
	res    *Result
}

var _ sim.Workload = (*swarm)(nil)

// noChunk marks an empty ring slot; valid chunk ids (>= -DelaySeconds *
// StreamRate) are always greater.
const noChunk = math.MinInt32

// potID is the ledger account holding the policy engine's pot. Overlay
// node ids are non-negative, so -1 never collides.
const potID = -1

// freshLen is the per-peer fresh-tail mirror size (a power of two).
const (
	freshLen  = 8
	freshMask = freshLen - 1
)

func bitSet(bs []uint64, i int32)   { bs[i>>6] |= 1 << (uint(i) & 63) }
func bitClear(bs []uint64, i int32) { bs[i>>6] &^= 1 << (uint(i) & 63) }
func bitGet(bs []uint64, i int32) bool {
	return bs[i>>6]>>(uint(i)&63)&1 != 0
}

// ringIdx maps a chunk id to its window slot offset.
func (s *swarm) ringIdx(chunk int) int { return (chunk + s.ringOff) & s.ringMask }

// has reports possession of chunk for the peer at index px.
func (s *swarm) has(px int32, chunk int) bool {
	return s.rings[int(px)*s.ringLen+s.ringIdx(chunk)] == int32(chunk)
}

// addChunk records possession of a chunk for the peer at index px. A full
// slab segment — reachable only past the clamped push margin — is
// force-compacted first; live entries are bounded by the ring, so the
// compact always frees room.
func (s *swarm) addChunk(p *speer, px int32, chunk int) {
	s.rings[int(px)*s.ringLen+s.ringIdx(chunk)] = int32(chunk)
	p.haveCount++
	if int(p.listLen) == s.listCap {
		s.compactSeg(p, px)
	}
	if p.listLen == 0 {
		bitClear(s.empty, px)
	}
	s.lists[int(px)*s.listCap+int(p.listLen)] = int32(chunk)
	if s.useFresh {
		s.fresh[int(px)*freshLen+int(p.listLen)&freshMask] = int32(chunk)
	}
	p.listLen++
}

// compact prunes evicted chunks from the haveList once staleness dominates.
func (s *swarm) compact(p *speer, px int32) {
	if int(p.listLen) <= 4*int(p.haveCount)+16 {
		return
	}
	s.compactSeg(p, px)
}

// compactSeg unconditionally prunes the peer's list segment, then
// re-mirrors the surviving tail.
func (s *swarm) compactSeg(p *speer, px int32) {
	base := int(px) * s.listCap
	seg := s.lists[base : base+int(p.listLen)]
	ring := s.rings[int(px)*s.ringLen : (int(px)+1)*s.ringLen]
	kept := 0
	for _, c := range seg {
		if ring[(int(c)+s.ringOff)&s.ringMask] == c {
			seg[kept] = c
			kept++
		}
	}
	p.listLen = int32(kept)
	if kept == 0 {
		bitSet(s.empty, px)
		return
	}
	if !s.useFresh {
		return
	}
	lo := kept - freshLen
	if lo < 0 {
		lo = 0
	}
	for idx := lo; idx < kept; idx++ {
		s.fresh[int(px)*freshLen+idx&freshMask] = seg[idx]
	}
}

// price quotes seller's price for chunk through the fast path when the
// scheme is per-seller flat, falling back to the Pricing interface.
func (s *swarm) price(q *speer, seller int32, chunk int) int64 {
	if s.flatPrice {
		return q.price
	}
	return s.pricing.Price(int(s.k.Peers.At(seller).ID), chunk)
}

// OnJoin installs a joining peer's upload cap and kernel mirrors
// (sim.Workload). The swarm population is fixed at start, so px always
// extends the slab.
func (s *swarm) OnJoin(px int32) error {
	kp := s.k.Peers.At(px)
	id := int(kp.ID)
	upCap := s.cfg.UploadCap
	if v, ok := s.cfg.UploadCapOf[id]; ok {
		if v < 1 {
			return fmt.Errorf("%w: upload cap %d for peer %d", ErrBadConfig, v, id)
		}
		upCap = v
	}
	if int(px) >= len(s.peers) {
		s.peers = append(s.peers, speer{})
	}
	p := &s.peers[px]
	*p = speer{
		acct:  kp.Acct,
		upCap: int32(upCap),
		alive: true,
	}
	bitSet(s.empty, px) // nothing buffered yet; the warm start clears it
	return nil
}

// OnDepart tears a peer's streaming state down (sim.Workload): its chunks
// vanish with it, so neighbors can no longer probe or buy from the slot,
// and the kernel's generation bump makes any retained reference inert.
func (s *swarm) OnDepart(px int32) {
	p := &s.peers[px]
	base := int(px) * s.listCap
	ring := s.rings[int(px)*s.ringLen : (int(px)+1)*s.ringLen]
	for _, c := range s.lists[base : base+int(p.listLen)] {
		ring[(int(c)+s.ringOff)&s.ringMask] = noChunk
	}
	p.listLen = 0
	p.haveCount = 0
	p.upCap = 0
	p.alive = false
	bitSet(s.empty, px)
	bitSet(s.dead, px)
	bitSet(s.full, px)
}

// Sample implements sim.Workload; sampling is tick-driven.
func (s *swarm) Sample(float64) {}

// OnEvent runs one trading round per kernel tick (sim.Workload).
func (s *swarm) OnEvent(ev des.Event) {
	if ev.Kind == sim.KindTick {
		s.round(int(ev.Payload))
	}
}

// newSwarm builds the kernel, joins the population, resolves neighborhoods
// and prices, and warm-starts the buffers, leaving the run ready to Start.
// cfg must already be validated.
func newSwarm(cfg Config) (*swarm, error) {
	ids := cfg.Graph.Nodes()
	n := len(ids)
	ringLen := 1
	for ringLen < (cfg.DelaySeconds+1)*cfg.StreamRate {
		ringLen <<= 1
	}
	s := &swarm{
		cfg:      cfg,
		ids:      ids,
		ringLen:  ringLen,
		ringMask: ringLen - 1,
		ringOff:  cfg.DelaySeconds * cfg.StreamRate,
	}
	k, err := sim.NewKernel(sim.Config{
		Graph:         cfg.Graph,
		InitialWealth: cfg.InitialWealth,
		Horizon:       float64(cfg.HorizonSeconds),
		Seed:          cfg.Seed,
		TickEvery:     1,
	}, s)
	if err != nil {
		return nil, err
	}
	s.k = k
	k.Metrics.Gini.Name = "wealth-gini"
	if len(cfg.Policies) > 0 {
		// The pot is a system account outside the node-id space (overlay
		// ids are non-negative); binding precedes the joins below so
		// join-hook policies see the whole population.
		pot, err := k.OpenExternal(potID, 0)
		if err != nil {
			return nil, err
		}
		s.engine = policy.NewEngine(cfg.Policies...)
		if err := k.BindPolicies(s.engine, pot, cfg.PolicyEpoch); err != nil {
			return nil, err
		}
	}
	// Bulk-allocate the per-peer window rings and buffer-map sample lists
	// as int32 slabs instead of 2n small allocations — half the footprint
	// of the old int slabs, which matters because the trading pass samples
	// them randomly across the whole population. listCap bounds haveList
	// growth: compaction (once per round) trims it to haveCount <= ringLen
	// whenever it exceeds 4*haveCount+16, and a round adds at most
	// DownloadCap purchases plus the source pushes a peer receives. The
	// push margin is the total seed volume, clamped at 256: an unclamped
	// margin scales the slab with SourceSeeds (a million-peer swarm seeds
	// thousands of pushes per round — 32 GB of lists for a worst case that
	// never occurs), so beyond the clamp a segment that does fill is
	// force-compacted in place by addChunk instead. Configurations whose
	// seed volume fits the clamp keep the exact old capacity and can never
	// hit the forced path, so their byte-for-byte behavior is unchanged.
	s.rings = make([]int32, n*s.ringLen)
	for i := range s.rings {
		s.rings[i] = noChunk
	}
	pushMargin := cfg.SourceSeeds * cfg.StreamRate
	if pushMargin > 256 {
		pushMargin = 256
	}
	s.listCap = 4*s.ringLen + 16 + cfg.DownloadCap + pushMargin
	s.lists = make([]int32, n*s.listCap)
	s.useFresh = 4*cfg.StreamRate <= freshLen
	if s.useFresh {
		s.fresh = make([]int32, n*freshLen)
	}
	words := (n + 63) / 64
	s.empty = make([]uint64, words)
	s.busy = make([]uint64, words)
	s.full = make([]uint64, words)
	s.dead = make([]uint64, words)
	s.peers = make([]speer, 0, n)
	for _, id := range ids {
		if _, err := k.Join(id); err != nil {
			return nil, err
		}
	}
	// Resolve routing neighborhoods to peer indices once, carved from one
	// shared slab (the overlay is static; departed slots are skipped at
	// trade time via their emptied buffer maps).
	s.nbrSlab = make([]int32, 0, 2*cfg.Graph.NumEdges())
	var nbrScratch []int
	for px := 0; px < n; px++ {
		nbrScratch = cfg.Graph.AppendNeighbors(nbrScratch[:0], s.ids[px])
		start := len(s.nbrSlab)
		for _, nb := range nbrScratch {
			s.nbrSlab = append(s.nbrSlab, k.Peers.PxOf(nb))
		}
		s.peers[px].nbrOff = uint32(start)
		s.peers[px].nbrLen = uint32(len(s.nbrSlab) - start)
	}
	// Pre-resolve per-seller flat prices into the peer records so the
	// trading loop skips the interface call and map lookup per probe.
	// Schemes whose price depends on the chunk or on sale history stay
	// behind the interface.
	switch pr := cfg.Pricing.(type) {
	case credit.UniformPricing:
		s.flatPrice = true
		for i := range s.peers {
			s.peers[i].price = pr.Credits
		}
	case credit.PerPeerPricing:
		s.flatPrice = true
		for i, id := range ids {
			s.peers[i].price = pr.Price(id, 0)
		}
	default:
		s.pricing = cfg.Pricing
	}
	s.res = &Result{
		SpendingRate: make(map[int]float64, n),
		DownloadRate: make(map[int]float64, n),
		Continuity:   make(map[int]float64, n),
		FinalWealth:  make(map[int]int64, n),
	}
	// Warm start: every peer holds the full pre-roll window (chunk ids
	// below 0), as if the swarm has already been streaming healthily. A
	// cold start would stratify income by degree during the initial
	// scramble — an artifact the paper's long-run measurements exclude.
	for i := range s.peers {
		p := &s.peers[i]
		for chunk := -cfg.DelaySeconds * cfg.StreamRate; chunk < 0; chunk++ {
			s.addChunk(p, int32(i), chunk)
		}
	}
	if len(cfg.Departures) > 0 {
		s.departAt = make(map[int][]int32, len(cfg.Departures))
		for _, d := range cfg.Departures {
			s.departAt[d.AtSecond] = append(s.departAt[d.AtSecond], k.Peers.PxOf(d.ID))
		}
	}
	s.order = make([]int32, n)
	for i := range s.order {
		s.order[i] = int32(i)
	}
	return s, nil
}

// round executes one second of swarm time: planned departures, source
// seeding, the trading pass, playback/eviction, and the periodic sample.
func (s *swarm) round(t int) {
	cfg, k, rng, res := &s.cfg, s.k, s.k.RNG, s.res
	n := len(s.peers)
	inWindow := t >= cfg.MeasureStartSeconds
	rings, lists, nbrSlab := s.rings, s.lists, s.nbrSlab
	ringLen, listCap := s.ringLen, s.listCap

	// 0. Planned teardowns scheduled for this round.
	for _, px := range s.departAt[t] {
		if px >= 0 && k.Depart(px) {
			res.Departures++
		}
	}

	// 1. Source emits this second's chunks and seeds each to a few random
	// peers for free. A push aimed at a departed slot is wasted (the
	// source does not know who left), but draws the same randomness, so
	// departure-free runs are byte-identical to the pre-teardown engine.
	for c := 0; c < cfg.StreamRate; c++ {
		chunk := t*cfg.StreamRate + c
		for sd := 0; sd < cfg.SourceSeeds; sd++ {
			px := rng.Intn(n)
			p := &s.peers[px]
			if !p.alive {
				continue
			}
			if !s.has(int32(px), chunk) {
				s.addChunk(p, int32(px), chunk)
				res.ChunksSeeded++
			}
		}
	}

	// 2. Reset per-round capacities; randomize buyer order for fairness.
	// The skip bitsets reset with them: nobody is busy, and only torn-down
	// peers (upCap 0) start the round at full capacity.
	for i := range s.peers {
		s.peers[i].upUsed, s.peers[i].downUsed = 0, 0
	}
	clear(s.busy)
	copy(s.full, s.dead)
	rng.Shuffle(n, func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })

	// 3. Trading pass: each buyer samples neighbors' buffer maps and buys
	// useful window chunks (mesh-pull with limited gossip). Departed
	// sellers hold nothing (their buffer maps were emptied at teardown),
	// so the existing empty-list skip covers them.
	playhead := (t - cfg.DelaySeconds) * cfg.StreamRate
	if playhead < 0 {
		playhead = 0
	}
	downCap := int32(cfg.DownloadCap)
	ringOff := s.ringOff
	ringMask := s.ringMask
	freshSpan := 4 * cfg.StreamRate
	useFresh := s.useFresh
	freshSlab := s.fresh
	empty, busy, full := s.empty, s.busy, s.full
	for _, bi := range s.order {
		p := &s.peers[bi]
		if !p.alive {
			continue
		}
		if p.nbrLen == 0 || p.downUsed >= downCap {
			continue
		}
		balance := k.Ledger.BalanceAt(p.acct)
		nbrs := nbrSlab[p.nbrOff : p.nbrOff+p.nbrLen]
		pRing := rings[int(bi)*ringLen : (int(bi)+1)*ringLen]
		// Visit neighbors starting from a random offset, in two sweeps:
		// idle sellers first (least-loaded request routing, as real
		// mesh protocols do for load balancing), then anyone with
		// spare upload capacity.
		offset := rng.Intn(len(nbrs))
		for sweep := 0; sweep < 2 && p.downUsed < downCap; sweep++ {
			cursor := offset
			for ni := 0; ni < len(nbrs) && p.downUsed < downCap; ni++ {
				si := nbrs[cursor]
				cursor++
				if cursor == len(nbrs) {
					cursor = 0
				}
				// Bit tests against the cache-resident skip sets stand in
				// for the seller-record reads they mirror (empty buffer;
				// busy in the idle sweep; out of upload capacity), so a
				// skipped seller never pulls its 64-byte record into
				// cache.
				w, b := si>>6, uint(si)&63
				if empty[w]>>b&1 != 0 {
					continue
				}
				if sweep == 0 {
					if busy[w]>>b&1 != 0 {
						continue
					}
				} else if full[w]>>b&1 != 0 {
					continue
				}
				q := &s.peers[si]
				qList := lists[int(si)*listCap : int(si)*listCap+int(q.listLen)]
				for probe := 0; probe < cfg.ProbesPerNeighbor &&
					p.downUsed < downCap && q.upUsed < q.upCap; probe++ {
					// Alternate between the seller's freshest
					// acquisitions (what a buyer most likely misses)
					// and uniform window samples. Fresh-tail reads hit
					// the dense mirror slab when the span fits it.
					var chunk int
					if probe&1 == 0 {
						tail := len(qList)
						span := tail
						if span > freshSpan {
							span = freshSpan
						}
						idx := tail - 1 - rng.Intn(span)
						if useFresh {
							chunk = int(freshSlab[int(si)*freshLen+idx&freshMask])
						} else {
							chunk = int(qList[idx])
						}
					} else {
						chunk = int(qList[rng.Intn(len(qList))])
					}
					// Possession checks. The seller's own ring is NOT
					// consulted: a live seller's buffer-list entry at or
					// past the playhead is always still in its window —
					// the eviction pass closing round t-1 removes exactly
					// the chunks below round t's playhead, live window
					// ids never alias a ring slot (the ring covers the
					// full chunk lifetime), and departed sellers were
					// skipped via their emptied lists — so the stale-entry
					// filter is the playhead bound itself. The buyer-side
					// &ringMask form lets the compiler elide the ring
					// bounds check.
					if chunk < playhead ||
						pRing[(chunk+ringOff)&ringMask] == int32(chunk) {
						continue
					}
					price := s.price(q, si, chunk)
					if price > balance {
						continue
					}
					if price > 0 {
						if !k.TransferAcct(p.acct, q.acct, price) {
							continue
						}
						balance -= price
						if inWindow {
							p.spent += price
						}
						if s.engine != nil {
							// Route the seller's income through the policy
							// pipeline (taxation, redistribution), then
							// re-read the buyer's balance: redistribution
							// may have credited it mid-round.
							k.PolicyIncome(si, k.Ledger.BalanceAt(q.acct)-price, price)
							balance = k.Ledger.BalanceAt(p.acct)
						}
					}
					s.addChunk(p, bi, chunk)
					q.upUsed++
					if q.upUsed == 1 {
						busy[w] |= 1 << b
					}
					if q.upUsed >= q.upCap {
						full[w] |= 1 << b
					}
					p.downUsed++
					if inWindow {
						p.bought++
					}
					res.ChunksTraded++
				}
			}
		}
	}

	// 4. Playback and eviction: chunks whose deadline passed leave the
	// window; present means played, absent means a stall. Pre-roll
	// chunks (negative ids) are evicted like any others. Departed peers
	// neither play nor stall.
	evictBelow := (t + 1 - cfg.DelaySeconds) * cfg.StreamRate
	for i := range s.peers {
		p := &s.peers[i]
		if !p.alive {
			continue
		}
		ring := rings[i*ringLen : (i+1)*ringLen]
		for chunk := evictBelow - cfg.StreamRate; chunk < evictBelow; chunk++ {
			ri := (chunk + ringOff) & ringMask
			if ring[ri] == int32(chunk) {
				ring[ri] = noChunk
				p.haveCount--
				if inWindow {
					p.played++
				}
			} else if inWindow {
				p.missed++
				res.Stalls++
			}
		}
		s.compact(p, int32(i))
	}

	// 5. Periodic wealth-Gini sample.
	if t%100 == 0 {
		k.RecordSample(float64(t))
	}
}

func (s *swarm) finish() error {
	cfg, k, res := &s.cfg, s.k, s.res
	window := float64(cfg.HorizonSeconds - cfg.MeasureStartSeconds)
	spendVec := make([]float64, 0, len(s.peers))
	for i, id := range s.ids {
		p := &s.peers[i]
		if !p.alive {
			continue
		}
		res.SpendingRate[id] = float64(p.spent) / window
		res.DownloadRate[id] = float64(p.bought) / window
		total := int(p.played) + int(p.missed)
		if total > 0 {
			res.Continuity[id] = float64(p.played) / float64(total)
		}
		res.FinalWealth[id] = k.Ledger.BalanceAt(p.acct)
		spendVec = append(spendVec, res.SpendingRate[id])
	}
	if err := k.Finish(); err != nil {
		return fmt.Errorf("streaming: %w", err)
	}
	var err error
	res.GiniSpending, err = stats.Gini(spendVec)
	if err != nil {
		return err
	}
	g, ok := k.GiniNow()
	if !ok {
		return fmt.Errorf("%w: final wealth Gini undefined", ErrBadConfig)
	}
	res.GiniWealth = g
	res.WealthGini = k.Metrics.Gini
	if s.engine != nil {
		t := s.engine.Totals()
		res.TaxCollected = t.Collected
		res.TaxRedistributed = t.Redistributed
		res.Injected = t.Injected
	}
	return nil
}
