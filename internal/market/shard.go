package market

import (
	"fmt"
	"math"

	"creditp2p/internal/cacheline"
	"creditp2p/internal/shard"
	"creditp2p/internal/snapshot"
)

// ShardConfig parameterizes the market workload on the sharded kernel:
// the paper's credit market reduced to its open-loop core. Every live
// peer attempts a one-credit purchase after an exponential service time
// with rate Mu, routed uniformly over its overlay neighborhood (the
// paper's symmetric transfer matrix); the purchase fails — without retry
// and without disturbing the attempt process — when the buyer is
// insolvent, the chosen provider is offline as of the window start, or
// the provider is a free rider with nothing to serve. Free riders
// (Sec. VI-B) keep buying but never earn, so they drain to bankruptcy
// unless a redistribution policy feeds them.
//
// Open-loop attempts are what make the workload shard-count-invariant:
// every decision a peer makes depends only on its own stream, its own
// balance, and window-start liveness — never on another lane's
// mid-window state.
type ShardConfig struct {
	// Mu is the per-peer spend-attempt rate (attempts per second).
	Mu float64
	// Amount is the credits transferred per successful purchase.
	Amount int64
	// FreeRiderFrac is the fraction of peers that serve nothing,
	// assigned by per-peer Bernoulli draws at setup.
	FreeRiderFrac float64
}

// ShardMarket implements shard.Workload for ShardConfig. Build with
// NewShard and pass as Config.Workload.
type ShardMarket struct {
	cfg ShardConfig
	e   *shard.Engine
	// fr marks free riders (static after setup, derived from each peer's
	// stream prefix).
	fr []uint64
	// per-lane counters, summed into Result.Counters at finish.
	lanes []shardMarketCounters
}

// shardMarketCounters is one lane's counter record. Every event
// increments it, so the pads keep it off any line another lane's record
// (or anything else) occupies.
type shardMarketCounters struct {
	_             cacheline.Pad
	attempts      uint64
	purchases     uint64
	failInsolvent uint64
	failOffline   uint64
	failFreeRider uint64
	failIsolated  uint64
	_             cacheline.Pad
}

// NewShard builds the sharded market workload.
func NewShard(cfg ShardConfig) (*ShardMarket, error) {
	if cfg.Mu <= 0 {
		return nil, fmt.Errorf("%w: Mu=%v", ErrBadConfig, cfg.Mu)
	}
	if cfg.Amount <= 0 {
		return nil, fmt.Errorf("%w: Amount=%d", ErrBadConfig, cfg.Amount)
	}
	if cfg.FreeRiderFrac < 0 || cfg.FreeRiderFrac > 1 {
		return nil, fmt.Errorf("%w: FreeRiderFrac=%v", ErrBadConfig, cfg.FreeRiderFrac)
	}
	return &ShardMarket{cfg: cfg}, nil
}

// Setup assigns free-rider roles by one Bernoulli draw per peer, in
// index order, from each peer's own stream — a fixed stream prefix that
// replays identically when an engine is rebuilt for restore.
func (m *ShardMarket) Setup(e *shard.Engine) error {
	m.e = e
	n := e.N()
	m.fr = make([]uint64, (n+63)/64)
	m.lanes = make([]shardMarketCounters, e.Shards())
	if m.cfg.FreeRiderFrac > 0 {
		for g := 0; g < n; g++ {
			if e.Rand(int32(g)).Bernoulli(m.cfg.FreeRiderFrac) {
				m.fr[g>>6] |= 1 << (uint(g) & 63)
			}
		}
	}
	return nil
}

func (m *ShardMarket) freeRider(g int32) bool {
	return m.fr[g>>6]&(1<<(uint(g)&63)) != 0
}

// Arm returns peer g's first attempt time after t.
func (m *ShardMarket) Arm(ln *shard.Lane, g int32, t float64) float64 {
	return t + m.e.Rand(g).Exponential(m.cfg.Mu)
}

// OnEvent handles one spend attempt: pick a provider uniformly from the
// neighborhood, transfer on success, and always return the next attempt
// time — bankrupt peers keep attempting, which is what lets
// redistribution revive them.
func (m *ShardMarket) OnEvent(ln *shard.Lane, g int32, t float64) float64 {
	r := m.e.Rand(g)
	c := &m.lanes[ln.S]
	c.attempts++
	nbrs := m.e.Neighbors(g)
	if len(nbrs) == 0 {
		c.failIsolated++
	} else {
		dst := ln.PickNeighbor(t, g, nbrs, r)
		switch {
		case !m.e.AliveEpoch(dst):
			c.failOffline++
		case m.freeRider(dst):
			c.failFreeRider++
		case !ln.Spend(t, g, dst, 0, m.cfg.Amount):
			c.failInsolvent++
		default:
			c.purchases++
		}
	}
	return t + r.Exponential(m.cfg.Mu)
}

// Finish sums the per-lane counters into the result.
func (m *ShardMarket) Finish(res *shard.Result) {
	var t shardMarketCounters
	for _, c := range m.lanes {
		t.attempts += c.attempts
		t.purchases += c.purchases
		t.failInsolvent += c.failInsolvent
		t.failOffline += c.failOffline
		t.failFreeRider += c.failFreeRider
		t.failIsolated += c.failIsolated
	}
	res.Counters["attempts"] = t.attempts
	res.Counters["purchases"] = t.purchases
	res.Counters["fail_insolvent"] = t.failInsolvent
	res.Counters["fail_offline"] = t.failOffline
	res.Counters["fail_freerider"] = t.failFreeRider
	res.Counters["fail_isolated"] = t.failIsolated
}

// Digest folds the workload configuration for snapshot compatibility.
func (m *ShardMarket) Digest() uint64 {
	h := uint64(0x6d61726b6574) // "market"
	h = h*1099511628211 ^ math.Float64bits(m.cfg.Mu)
	h = h*1099511628211 ^ uint64(m.cfg.Amount)
	h = h*1099511628211 ^ math.Float64bits(m.cfg.FreeRiderFrac)
	return h
}

// SaveState serializes the per-lane counters; the free-rider map is
// replayed from the stream prefixes at rebuild and needs no bytes.
func (m *ShardMarket) SaveState(w *snapshot.Writer) {
	w.Section("mkshard")
	w.Int(len(m.lanes))
	for _, c := range m.lanes {
		w.U64(c.attempts)
		w.U64(c.purchases)
		w.U64(c.failInsolvent)
		w.U64(c.failOffline)
		w.U64(c.failFreeRider)
		w.U64(c.failIsolated)
	}
}

// LoadState restores the workload at the same shard count.
func (m *ShardMarket) LoadState(r *snapshot.Reader) error {
	r.Section("mkshard")
	if got := r.Int(); got != len(m.lanes) {
		return fmt.Errorf("market: shard snapshot has %d lane counter sets, want %d", got, len(m.lanes))
	}
	for i := range m.lanes {
		c := &m.lanes[i]
		c.attempts = r.U64()
		c.purchases = r.U64()
		c.failInsolvent = r.U64()
		c.failOffline = r.U64()
		c.failFreeRider = r.U64()
		c.failIsolated = r.U64()
	}
	return r.Err()
}
