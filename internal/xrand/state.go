package xrand

import "creditp2p/internal/snapshot"

// SaveState records the stream position: its seed and how many generator
// steps have been consumed. Together they pin the generator exactly — every
// sampler draws through the one register, so (seed, draws) is the complete
// state.
func (r *RNG) SaveState(w *snapshot.Writer) {
	w.Section("rng")
	w.I64(r.seed)
	w.U64(r.draws)
}

// LoadState repositions the stream: the register is reseeded with the
// recorded seed and fast-forwarded by replaying the recorded number of
// steps. Replay runs at hundreds of millions of steps per second, so even
// long runs restore in well under a second per stream.
func (r *RNG) LoadState(rd *snapshot.Reader) {
	rd.Section("rng")
	seed := rd.I64()
	draws := rd.U64()
	if rd.Err() != nil {
		return
	}
	r.reseed(seed)
	for range draws {
		r.next()
	}
}

// SaveState serializes the sampler verbatim. The tree is order-sensitive
// (floating-point partial sums depend on update history), so it is stored
// rather than rebuilt: a restored tree reproduces the exact same samples.
func (f *Fenwick) SaveState(w *snapshot.Writer) {
	w.F64s(f.tree)
	w.Int(f.n)
	w.Int(f.top)
	w.F64(f.total)
}

// LoadState restores a sampler serialized by SaveState.
func (f *Fenwick) LoadState(rd *snapshot.Reader, maxWeights int) {
	f.tree = rd.F64s(maxWeights)
	f.n = rd.Int()
	f.top = rd.Int()
	f.total = rd.F64()
}
