package shard

import (
	"fmt"

	"creditp2p/internal/snapshot"
	"creditp2p/internal/xrand"
)

// Dirty-segment delta snapshots. A delta serializes only what moved since
// the previous capture: the coordinator's singleton state (scalars, metric
// series, policy engine, epoch bitmap — all small), each lane's scheduler
// delta and accumulators, and the dirty peer segments of the big
// whole-population arrays (bal, rng, flags). Dirty tracking lives on the
// mutation paths (Lane.markPeer, des.Scheduler's slab marks); a delta
// walks the marked segments and clears them, so the next delta is
// relative to this one. Restore replays the base then each delta in chain
// order and rebuilds the event queues once at the end.

// PeerSpan is a half-open global peer index range [Lo, Hi) whose state a
// delta covers. Spans handed to workloads are ascending and
// non-overlapping, each within one lane's partition.
type PeerSpan struct {
	Lo, Hi int32
}

// DeltaWorkload is the optional workload extension for delta
// checkpointing: a workload that keeps per-peer state can serialize just
// the peers in the dirty spans instead of its full state. Workloads that
// don't implement it fall back to a full SaveState inside every delta —
// correct, just larger. The contract mirrors SaveState/LoadState:
// LoadDelta receives the same spans SaveDelta was given, in the same
// order, and must consume exactly what SaveDelta wrote.
type DeltaWorkload interface {
	Workload
	// SaveDelta serializes the workload state of the peers in spans, plus
	// any non-per-peer state the workload owns.
	SaveDelta(w *snapshot.Writer, spans []PeerSpan)
	// LoadDelta applies a delta written by SaveDelta with the same spans.
	LoadDelta(r *snapshot.Reader, spans []PeerSpan) error
}

// appendDirtySpans appends every lane's dirty peer segments to dst as
// global index spans, ascending. Lane bitmaps are NOT cleared — the lane
// delta encodes (and clears) them afterwards.
func (e *Engine) appendDirtySpans(dst []PeerSpan) []PeerSpan {
	for _, ln := range e.lanes {
		lo, hi := ln.lo, ln.hi
		ln.dirty.Walk(func(seg int) {
			glo := lo + int32(seg<<peerSegShift)
			ghi := glo + peerSegSize
			if ghi > hi {
				ghi = hi
			}
			dst = append(dst, PeerSpan{Lo: glo, Hi: ghi})
		})
	}
	return dst
}

// saveDeltaShared emits the coordinator singleton state: everything in
// saveShared except the big per-peer arrays, which the lane deltas carry
// segment-wise. The epoch bitmap rides along whole — at 1 bit per peer it
// is noise next to one dirty segment, and whole-array capture sidesteps
// the word-straddling a peer-span encoding would need at unaligned
// partition boundaries.
func (e *Engine) saveDeltaShared(w *snapshot.Writer) {
	w.Section("deltaeng")
	w.Bool(e.started)
	w.F64(e.now)
	w.F64(e.nextSample)
	w.F64(e.nextPol)
	w.I64(e.pot)
	w.U64(e.joins)
	w.U64(e.departures)
	w.U64(e.windows)
	w.U64s(e.aliveEpoch)
	saveSeries(w, e.gini)
	saveSeries(w, e.population)
	saveSeries(w, e.supply)
	e.polRNG.SaveState(w)
	if e.engine != nil {
		e.engine.SaveState(w)
	}
}

// saveDelta emits one lane's delta section: the scheduler's slab delta,
// the (small) accumulators, the full trimmed balance histogram — indexed
// by balance value, not peer, so it has no per-peer dirty structure — and
// the dirty peer segments of bal/rng/flags and routing state (every
// routing mutation — mirror write, EWMA update, hub-tree patch — marks its
// peer's segment, so segment-wise capture is exact). Clears the lane's
// dirty map. Safe to run concurrently across lanes.
func (ln *Lane) saveDelta(w *snapshot.Writer) {
	e := ln.e
	w.Section("dlane")
	ln.sched.SaveDelta(w)
	w.I64(ln.supply)
	w.I64(ln.minted)
	w.I64(ln.burned)
	w.I64(ln.lostAmount)
	w.U64(ln.transfers)
	w.U64(ln.crossTransfers)
	w.U64(ln.lostCount)
	w.Int(ln.liveN)
	w.I64s(trimHist(ln.hist))
	w.Int(ln.dirty.Count())
	ln.dirty.Walk(func(seg int) {
		glo := ln.lo + int32(seg<<peerSegShift)
		ghi := glo + peerSegSize
		if ghi > ln.hi {
			ghi = ln.hi
		}
		w.U32(uint32(seg))
		w.I64s(e.bal[glo:ghi])
		w.U64s(rngWords(e.rng[glo:ghi]))
		w.U8s(e.flags[glo:ghi])
		e.saveRouting(w, glo, ghi)
	})
	ln.dirty.Clear()
}

// saveDeltaWorkload emits the workload delta section: the dirty spans in
// plain form (LoadDelta replays them to the workload), then either the
// workload's span-wise delta or, for workloads without delta support, its
// full state.
func (e *Engine) saveDeltaWorkload(w *snapshot.Writer, spans []PeerSpan) {
	w.Section("dworkload")
	if dw, ok := e.cfg.Workload.(DeltaWorkload); ok {
		w.U8(1)
		w.Int(len(spans))
		for _, sp := range spans {
			w.U32(uint32(sp.Lo))
			w.U32(uint32(sp.Hi))
		}
		dw.SaveDelta(w, spans)
		return
	}
	w.U8(0)
	e.cfg.Workload.SaveState(w)
}

// applyDelta patches one delta link into the engine, which must hold the
// chain's preceding state. The lanes' event queues are not rebuilt here —
// the chain restore does that once after the last link.
func (e *Engine) applyDelta(r *snapshot.Reader) error {
	link := r.LinkHeader()
	if err := r.Err(); err != nil {
		return err
	}
	if link.Kind != snapshot.LinkDelta {
		return fmt.Errorf("shard: chain link is not a delta")
	}
	r.Section("shardhdr")
	p := int(r.U32())
	digest := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if p != e.p {
		return fmt.Errorf("shard: delta was taken with %d shards, this engine has %d", p, e.p)
	}
	if want := e.configDigest(); digest != want {
		return fmt.Errorf("shard: delta config digest mismatch: %016x vs engine %016x", digest, want)
	}

	r.Section("deltaeng")
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
	aliveEpoch := r.U64s(len(e.aliveEpoch))
	if err := r.Err(); err != nil {
		return err
	}
	if len(aliveEpoch) != len(e.aliveEpoch) {
		return fmt.Errorf("shard: delta epoch bitmap has %d words, engine wants %d", len(aliveEpoch), len(e.aliveEpoch))
	}
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
		if err := ln.applyDelta(r); err != nil {
			return err
		}
	}

	return e.applyDeltaWorkload(r)
}

// applyDelta patches one lane's delta section.
func (ln *Lane) applyDelta(r *snapshot.Reader) error {
	e := ln.e
	r.Section("dlane")
	if err := ln.sched.ApplyDelta(r); err != nil {
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
	segs := r.Int()
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
	maxSeg := (int(ln.hi-ln.lo) + peerSegSize - 1) >> peerSegShift
	for k := 0; k < segs; k++ {
		seg := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if seg < 0 || seg >= maxSeg {
			return fmt.Errorf("shard: lane %d delta segment %d outside its %d-segment partition", ln.S, seg, maxSeg)
		}
		glo := ln.lo + int32(seg<<peerSegShift)
		ghi := glo + peerSegSize
		if ghi > ln.hi {
			ghi = ln.hi
		}
		n := int(ghi - glo)
		bal := r.I64s(n)
		rng := r.U64s(n)
		flags := r.U8s(n)
		if err := r.Err(); err != nil {
			return err
		}
		if len(bal) != n || len(rng) != n || len(flags) != n {
			return fmt.Errorf("shard: lane %d delta segment %d spans %d/%d/%d peers, want %d",
				ln.S, seg, len(bal), len(rng), len(flags), n)
		}
		copy(e.bal[glo:ghi], bal)
		for i, v := range rng {
			e.rng[glo+int32(i)] = xrand.SplitMix64(v)
		}
		copy(e.flags[glo:ghi], flags)
		if err := e.loadRouting(r, glo, ghi); err != nil {
			return err
		}
	}
	ln.dirty.Clear()
	return nil
}

// applyDeltaWorkload consumes the workload delta section.
func (e *Engine) applyDeltaWorkload(r *snapshot.Reader) error {
	r.Section("dworkload")
	mode := r.U8()
	if err := r.Err(); err != nil {
		return err
	}
	if mode == 0 {
		if err := e.cfg.Workload.LoadState(r); err != nil {
			return err
		}
		return r.Err()
	}
	dw, ok := e.cfg.Workload.(DeltaWorkload)
	if !ok {
		return fmt.Errorf("shard: delta carries a span-wise workload delta but workload %T cannot load one", e.cfg.Workload)
	}
	nsp := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	const maxSpans = 1 << 24
	if nsp < 0 || nsp > maxSpans {
		return fmt.Errorf("shard: delta declares %d workload spans", nsp)
	}
	spans := make([]PeerSpan, nsp)
	for i := range spans {
		lo := int32(r.U32())
		hi := int32(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if lo < 0 || hi < lo || int(hi) > e.n {
			return fmt.Errorf("shard: delta workload span [%d,%d) outside the %d-peer table", lo, hi, e.n)
		}
		spans[i] = PeerSpan{Lo: lo, Hi: hi}
	}
	if err := dw.LoadDelta(r, spans); err != nil {
		return err
	}
	return r.Err()
}

// rebuildQueues reconstructs every lane scheduler's event queue from its
// slab — the epilogue of a chain restore.
func (e *Engine) rebuildQueues() {
	e.parallel(func(ln *Lane) { ln.sched.RebuildQueue() })
}

// RestoreChain rebuilds a run from cfg and a base+deltas checkpoint chain
// written by a Checkpointer (or a single base from Sim.Snapshot). The
// chain is validated end to end — per-link checksums, kind, id,
// contiguous indices, predecessor-CRC links — before any state is
// touched, then the base restores and each delta patches in order. The
// result is byte-identical to restoring a full snapshot taken at the same
// barrier.
func RestoreChain(cfg Config, chain [][]byte) (*Sim, error) {
	if err := snapshot.ValidateChain(chain); err != nil {
		return nil, err
	}
	s, err := RestoreSim(cfg, chain[0])
	if err != nil {
		return nil, err
	}
	for k := 1; k < len(chain); k++ {
		r, err := snapshot.Open(chain[k])
		if err != nil {
			return nil, fmt.Errorf("shard: chain link %d: %w", k, err)
		}
		if err := s.e.applyDelta(r); err != nil {
			return nil, fmt.Errorf("shard: chain link %d: %w", k, err)
		}
		if err := r.Close(); err != nil {
			return nil, fmt.Errorf("shard: chain link %d: %w", k, err)
		}
	}
	if len(chain) > 1 {
		s.e.rebuildQueues()
	}
	return s, nil
}
