package shard

import (
	"fmt"

	"creditp2p/internal/snapshot"
)

// Dirty-segment delta snapshots. A delta serializes only what moved since
// the previous capture: the coordinator's singleton state (scalars, metric
// series, policy engine, epoch bitmap — all small), each lane's counters,
// the dirty peer segments of the big whole-population arrays (bal, rng,
// flags, clocks), and the workload's small state whole. Dirty tracking
// lives on the mutation paths (Lane.markPeer); a delta walks the marked
// segments and clears them, so the next delta is relative to this one.
// Restore replays the base then each delta in chain order and settles the
// derived lane state once at the end.

// saveDeltaShared emits the coordinator singletons; the big per-peer
// arrays ride segment-wise in the lane deltas.
func (e *Engine) saveDeltaShared(w *snapshot.Writer) {
	w.Section("deltaeng")
	e.saveCoord(w)
}

// saveDelta emits one lane's delta section: the (small) counters and the
// dirty peer segments of the per-peer arrays and routing state (every
// routing mutation — mirror write, EWMA update, hub-tree patch — marks its
// peer's segment, so segment-wise capture is exact). Clears the lane's
// dirty map. Safe to run concurrently across lanes.
func (ln *Lane) saveDelta(w *snapshot.Writer) {
	e := ln.e
	w.Section("dlane")
	ln.saveCounters(w)
	w.Int(ln.dirty.Count())
	ln.dirty.Walk(func(seg int) {
		glo, ghi := ln.segment(seg)
		w.U32(uint32(seg))
		e.savePeers(w, glo, ghi)
		e.saveRouting(w, glo, ghi)
	})
	ln.dirty.Clear()
}

// segment returns the global peer range [glo, ghi) of the lane's dirty
// segment seg.
func (ln *Lane) segment(seg int) (glo, ghi int32) {
	glo = ln.lo + int32(seg<<peerSegShift)
	return glo, min(glo+peerSegSize, ln.hi)
}

// applyDelta patches one delta link into the engine, which must hold the
// chain's preceding state. The derived lane state is not settled here —
// the chain restore does that once after the last link.
func (e *Engine) applyDelta(r *snapshot.Reader) error {
	if err := e.loadHeader(r, snapshot.LinkDelta); err != nil {
		return err
	}
	r.Section("deltaeng")
	if err := e.loadCoord(r); err != nil {
		return err
	}
	for _, ln := range e.lanes {
		if err := ln.applyDelta(r); err != nil {
			return err
		}
	}
	return e.loadWorkload(r)
}

// applyDelta patches one lane's delta section.
func (ln *Lane) applyDelta(r *snapshot.Reader) error {
	e := ln.e
	r.Section("dlane")
	if err := ln.loadCounters(r); err != nil {
		return err
	}
	segs := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	maxSeg := (int(ln.hi-ln.lo) + peerSegSize - 1) >> peerSegShift
	if segs < 0 || segs > maxSeg {
		return fmt.Errorf("shard: lane %d delta declares %d dirty segments of %d", ln.S, segs, maxSeg)
	}
	for k := 0; k < segs; k++ {
		seg := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if seg < 0 || seg >= maxSeg {
			return fmt.Errorf("shard: lane %d delta segment %d outside its %d-segment partition", ln.S, seg, maxSeg)
		}
		glo, ghi := ln.segment(seg)
		if err := e.loadPeers(r, glo, ghi); err != nil {
			return err
		}
		if err := e.loadRouting(r, glo, ghi); err != nil {
			return err
		}
	}
	ln.dirty.Clear()
	return nil
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
		if err := s.e.settle(); err != nil {
			return nil, err
		}
	}
	return s, nil
}
