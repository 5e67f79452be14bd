package shard

import (
	"fmt"
	"math"
	"unsafe"

	"creditp2p/internal/snapshot"
	"creditp2p/internal/trace"
	"creditp2p/internal/xrand"
)

// rngWords views the stream array as raw uint64 words for bulk
// serialization; xrand.SplitMix64's state word is its entire stream
// position.
func rngWords(s []xrand.SplitMix64) []uint64 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&s[0])), len(s))
}

// Checkpoint/restore for the sharded kernel. Snapshots are taken only at
// window barriers, where the engine is quiescent by construction: every
// outbox has been merged, every lifecycle delta folded, so the mutable
// state is exactly the per-peer arrays, the per-lane schedulers and
// accumulators, the coordinator counters, and the workload — nothing
// in-flight.
//
// The shard count is part of the snapshot's physical layout (one
// scheduler section per lane), so it is stored in plain form ahead of the
// config digest and checked first: restoring at a different P fails with
// an error that names both counts instead of a generic digest mismatch.
// Everything else about the configuration folds into one digest, because
// any drift there invalidates the state wholesale.

// snapID is the deterministic capture identity stamped into chain-link
// headers: a digest of the configuration and the barrier position, so two
// captures of the same run state carry the same chain id (which is what
// the delta-vs-full byte-identity tests pin), while captures at different
// barriers — and hence different chain bases — never collide.
func (e *Engine) snapID() uint64 {
	h := e.configDigest()
	h = fnvU64(h, e.windows)
	h = fnvU64(h, math.Float64bits(e.now))
	h = fnvU64(h, e.joins)
	h = fnvU64(h, e.departures)
	h = fnvU64(h, e.EventsFired())
	return h
}

// saveHeader emits the chain-link header plus the plain-form layout
// prologue every snapshot (base or delta) starts with.
func (e *Engine) saveHeader(w *snapshot.Writer, h snapshot.LinkHeader) {
	w.LinkHeader(h)
	w.Section("shardhdr")
	w.U32(uint32(e.p))
	w.U64(e.configDigest())
}

// saveShared emits the coordinator-owned singleton state: scalars, the
// whole-population peer arrays, metric series, the policy RNG and the
// policy engine.
func (e *Engine) saveShared(w *snapshot.Writer) {
	w.Section("shardeng")
	w.Bool(e.started)
	w.F64(e.now)
	w.F64(e.nextSample)
	w.F64(e.nextPol)
	w.I64(e.pot)
	w.U64(e.joins)
	w.U64(e.departures)
	w.U64(e.windows)
	w.I64s(e.bal)
	w.U64s(rngWords(e.rng))
	w.U8s(e.flags)
	w.U64s(e.aliveEpoch)
	saveSeries(w, e.gini)
	saveSeries(w, e.population)
	saveSeries(w, e.supply)
	e.polRNG.SaveState(w)
	if e.engine != nil {
		e.engine.SaveState(w)
	}
}

// save emits one lane's section: its scheduler, accumulators and balance
// histogram. Safe to run concurrently across lanes — it touches only
// lane-owned state.
func (ln *Lane) save(w *snapshot.Writer) {
	w.Section("lane")
	ln.sched.SaveState(w)
	w.I64(ln.supply)
	w.I64(ln.minted)
	w.I64(ln.burned)
	w.I64(ln.lostAmount)
	w.U64(ln.transfers)
	w.U64(ln.crossTransfers)
	w.U64(ln.lostCount)
	w.Int(ln.liveN)
	w.I64s(trimHist(ln.hist))
	ln.e.saveRouting(w, ln.lo, ln.hi)
}

// saveRouting emits the routing state of peers [lo, hi) — a lane in a
// full capture, a dirty segment in a delta: the availability mirror, the
// EWMA state and the span's hub trees (stored in peer order, so a span's
// trees are contiguous). Serializing the hub trees — rather than
// rebuilding on restore — preserves their patch history, keeping resumed
// byte streams identical. Degree-routing state is a pure function of the
// graph that New rebuilds, so it emits nothing.
func (e *Engine) saveRouting(w *snapshot.Writer, lo, hi int32) {
	rt := &e.rt
	if rt.mode != RouteAvailability {
		return
	}
	w.F32s(rt.weight[lo:hi])
	w.F64s(rt.score[lo:hi])
	w.F64s(rt.scoreT[lo:hi])
	if rt.fenSlab != nil {
		w.F32s(rt.fenSlab[e.treeStart(lo):e.treeStart(hi)])
	}
}

// saveWorkload emits the workload section.
func (e *Engine) saveWorkload(w *snapshot.Writer) {
	w.Section("workload")
	e.cfg.Workload.SaveState(w)
}

// captured clears every dirty map and bumps the capture generation — the
// epilogue of any full capture. (Lane scheduler maps are cleared by
// sched.SaveState itself; delta captures clear selectively instead.)
func (e *Engine) captured() {
	for _, ln := range e.lanes {
		ln.dirty.Clear()
	}
	e.captureGen++
}

// SaveState serializes the engine into w as a chain base. Callers must be
// at a window barrier (which is the only place single-threaded callers
// can observe the engine anyway). The parallel checkpoint path assembles
// the exact same sections from per-lane fragments; serial and parallel
// captures are byte-identical.
func (e *Engine) SaveState(w *snapshot.Writer) {
	e.saveHeader(w, snapshot.LinkHeader{Kind: snapshot.LinkBase, ID: e.snapID()})
	e.saveShared(w)
	for _, ln := range e.lanes {
		ln.save(w)
	}
	e.saveWorkload(w)
	e.captured()
}

// LoadState restores a freshly built (unstarted) engine from r. The
// engine's configuration must match the one that produced the snapshot;
// the shard count is checked first with a descriptive error.
func (e *Engine) LoadState(r *snapshot.Reader) error {
	if e.started {
		return fmt.Errorf("shard: restore into an already-started engine")
	}
	link := r.LinkHeader()
	if err := r.Err(); err != nil {
		return err
	}
	if link.Kind != snapshot.LinkBase {
		return fmt.Errorf("shard: snapshot is a delta (chain link %d) — restore the chain with RestoreChain, not a lone delta", link.Index)
	}
	r.Section("shardhdr")
	p := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if p != e.p {
		return fmt.Errorf("shard: snapshot was taken with %d shards, this engine is configured for %d — restore with Shards=%d (shard count changes the lane layout and cannot be remapped)", p, e.p, p)
	}
	digest := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if want := e.configDigest(); digest != want {
		return fmt.Errorf("shard: config digest mismatch: snapshot %016x, engine %016x — graph, seed, horizon, policy set or workload differ from the run that produced this snapshot", digest, want)
	}

	r.Section("shardeng")
	e.started = r.Bool()
	e.running = e.started
	e.now = r.F64()
	e.bNow = e.now
	e.nextSample = r.F64()
	e.nextPol = r.F64()
	e.pot = r.I64()
	e.joins = r.U64()
	e.departures = r.U64()
	e.windows = r.U64()
	bal := r.I64s(e.n)
	rng := r.U64s(e.n)
	flags := r.U8s(e.n)
	aliveEpoch := r.U64s(len(e.aliveEpoch))
	if err := r.Err(); err != nil {
		return err
	}
	if len(bal) != e.n || len(rng) != e.n || len(flags) != e.n || len(aliveEpoch) != len(e.aliveEpoch) {
		return fmt.Errorf("shard: snapshot peer arrays sized %d/%d/%d/%d, engine wants %d/%d/%d/%d",
			len(bal), len(rng), len(flags), len(aliveEpoch), e.n, e.n, e.n, len(e.aliveEpoch))
	}
	copy(e.bal, bal)
	for i, v := range rng {
		e.rng[i] = xrand.SplitMix64(v)
	}
	copy(e.flags, flags)
	copy(e.aliveEpoch, aliveEpoch)
	if err := loadSeries(r, e.gini); err != nil {
		return err
	}
	if err := loadSeries(r, e.population); err != nil {
		return err
	}
	if err := loadSeries(r, e.supply); err != nil {
		return err
	}
	e.polRNG.LoadState(r)
	if e.engine != nil {
		e.engine.LoadState(r)
	}
	if err := r.Err(); err != nil {
		return err
	}

	for _, ln := range e.lanes {
		r.Section("lane")
		if err := ln.sched.LoadState(r); err != nil {
			return err
		}
		ln.supply = r.I64()
		ln.minted = r.I64()
		ln.burned = r.I64()
		ln.lostAmount = r.I64()
		ln.transfers = r.U64()
		ln.crossTransfers = r.U64()
		ln.lostCount = r.U64()
		ln.liveN = r.Int()
		hist := r.I64s(0)
		if err := r.Err(); err != nil {
			return err
		}
		for i := range ln.hist {
			ln.hist[i] = 0
		}
		if len(hist) > 0 {
			ln.growHist(int64(len(hist) - 1))
			copy(ln.hist, hist)
		}
		if err := e.loadRouting(r, ln.lo, ln.hi); err != nil {
			return err
		}
	}

	r.Section("workload")
	if err := e.cfg.Workload.LoadState(r); err != nil {
		return err
	}
	return r.Err()
}

// loadRouting restores the routing state of peers [lo, hi), mirroring
// saveRouting.
func (e *Engine) loadRouting(r *snapshot.Reader, lo, hi int32) error {
	rt := &e.rt
	if rt.mode != RouteAvailability {
		return nil
	}
	if err := loadF32Into(r, rt.weight[lo:hi], "routing weights"); err != nil {
		return err
	}
	if err := loadF64Into(r, rt.score[lo:hi], "availability scores"); err != nil {
		return err
	}
	if err := loadF64Into(r, rt.scoreT[lo:hi], "availability score times"); err != nil {
		return err
	}
	if rt.fenSlab != nil {
		return loadF32Into(r, rt.fenSlab[e.treeStart(lo):e.treeStart(hi)], "hub trees")
	}
	return nil
}

// loadF64Into reads a float array into dst, refusing size drift.
func loadF64Into(r *snapshot.Reader, dst []float64, what string) error {
	got := r.F64s(len(dst))
	if err := r.Err(); err != nil {
		return err
	}
	if len(got) != len(dst) {
		return fmt.Errorf("shard: snapshot %s sized %d, engine wants %d", what, len(got), len(dst))
	}
	copy(dst, got)
	return nil
}

// loadF32Into is loadF64Into for the float32 slab and mirror arrays.
func loadF32Into(r *snapshot.Reader, dst []float32, what string) error {
	got := r.F32s(len(dst))
	if err := r.Err(); err != nil {
		return err
	}
	if len(got) != len(dst) {
		return fmt.Errorf("shard: snapshot %s sized %d, engine wants %d", what, len(got), len(dst))
	}
	copy(dst, got)
	return nil
}

// configDigest folds the run configuration that the serialized state
// depends on (everything except the shard count, which is checked in
// plain form).
func (e *Engine) configDigest() uint64 {
	h := fnvOffset
	h = fnvU64(h, uint64(e.n))
	h = fnvU64(h, math.Float64bits(e.window))
	h = fnvU64(h, math.Float64bits(e.horizon))
	h = fnvU64(h, uint64(e.cfg.Seed))
	h = fnvU64(h, uint64(e.cfg.InitialWealth))
	h = fnvU64(h, math.Float64bits(e.sampleEvery))
	h = fnvU64(h, math.Float64bits(e.polEpoch))
	h = fnvU64(h, math.Float64bits(e.cfg.Churn.MeanLifespan))
	h = fnvU64(h, math.Float64bits(e.cfg.Churn.MeanDowntime))
	if e.cfg.Churn.RejoinRate != nil {
		h = fnvU64(h, 0x726a7368617065) // "rjshape": churn shaping present
		h = fnvU64(h, e.cfg.Churn.RateDigest)
	}
	h = e.routingDigest(h)
	h = fnvU64(h, uint64(len(e.cfg.Policies)))
	h = fnvU64(h, uint64(e.part.Edges()))
	h = fnvU64(h, e.cfg.Workload.Digest())
	return h
}

func saveSeries(w *snapshot.Writer, s *trace.Series) {
	w.F64s(s.Times)
	w.F64s(s.Values)
}

func loadSeries(r *snapshot.Reader, s *trace.Series) error {
	s.Times = r.F64s(0)
	s.Values = r.F64s(0)
	if err := r.Err(); err != nil {
		return err
	}
	if len(s.Times) != len(s.Values) {
		return fmt.Errorf("shard: series with %d times but %d values", len(s.Times), len(s.Values))
	}
	return nil
}

// trimHist drops trailing zero buckets so sparse histograms serialize
// small.
func trimHist(h []int64) []int64 {
	i := len(h)
	for i > 0 && h[i-1] == 0 {
		i--
	}
	return h[:i]
}

// Sim is the resumable handle over a sharded run, mirroring the
// single-threaded kernels' Sim shape: build, start, step windows,
// snapshot at any boundary, finish.
type Sim struct {
	e *Engine
}

// NewSim builds an engine without arming it; call Start to begin or
// RestoreSim to resume from a snapshot instead.
func NewSim(cfg Config) (*Sim, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Sim{e: e}, nil
}

// Start arms the initial events and records the t=0 sample.
func (s *Sim) Start() error { return s.e.Start() }

// StepWindow advances one conservative-sync window; false at the horizon.
func (s *Sim) StepWindow() bool { return s.e.StepWindow() }

// Now returns the engine's barrier time.
func (s *Sim) Now() float64 { return s.e.now }

// Engine exposes the underlying engine.
func (s *Sim) Engine() *Engine { return s.e }

// Snapshot serializes the run at the current window boundary.
func (s *Sim) Snapshot() []byte {
	w := snapshot.NewWriter(len(s.e.bal)*24 + 4096)
	s.e.SaveState(w)
	return w.Finish()
}

// Finish completes the run and returns the result.
func (s *Sim) Finish() (*Result, error) { return s.e.Finish() }

// RestoreSim rebuilds a run from cfg and a snapshot taken by Sim.Snapshot
// under the same configuration, refusing shard-count or config
// mismatches with descriptive errors.
func RestoreSim(cfg Config, data []byte) (*Sim, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	r, err := snapshot.Open(data)
	if err != nil {
		return nil, err
	}
	if err := e.LoadState(r); err != nil {
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return &Sim{e: e}, nil
}
