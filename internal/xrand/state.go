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
// recorded seed and advanced by the recorded number of steps. Short
// advances replay the steps; long ones jump (see skip), so a restore
// costs at most milliseconds whatever the count — a corrupt count cannot
// stall it.
func (r *RNG) LoadState(rd *snapshot.Reader) {
	rd.Section("rng")
	seed := rd.I64()
	draws := rd.U64()
	if rd.Err() != nil {
		return
	}
	r.reseed(seed)
	r.skip(draws)
}

// skipJump is the step count from which skip jumps instead of replaying:
// a jump costs about as much as replaying a few million steps.
const skipJump = 1 << 22

// skip advances the generator k steps, exactly as k draws would.
func (r *RNG) skip(k uint64) {
	if k < skipJump {
		for range k {
			r.next()
		}
		return
	}
	r.jump(k)
}

// jump advances the generator k steps in O(log k) polynomial products.
// The register holds the last rngLen terms of the linear recurrence
// x[n] = x[n-607] + x[n-273] (mod 2^64), whose characteristic polynomial
// is P(t) = t^607 - t^334 - 1. Counting from the oldest register term
// x[m], term x[m+j] is the combination of x[m..m+606] whose coefficients
// are those of t^j mod P, so the register k steps ahead is read off
// t^k, t^(k+1), ..., t^(k+606) mod P. x[n-d] sits at vec[(feed+d) mod
// rngLen].
func (r *RNG) jump(k uint64) {
	var win, c [rngLen]uint64
	for i := range win {
		win[i] = uint64(r.vec[(r.feed+rngLen-1-i)%rngLen])
	}
	c[0] = 1
	for b := 63; b >= 0; b-- {
		c = polyMulModP(&c, &c)
		if k>>uint(b)&1 != 0 {
			polyMulT(&c)
		}
	}
	shift := int(k % rngLen)
	r.feed = (r.feed - shift + rngLen) % rngLen
	r.tap = (r.tap - shift + rngLen) % rngLen
	for i := range rngLen {
		var x uint64
		for j := range c {
			x += c[j] * win[j]
		}
		r.vec[(r.feed+rngLen-1-i)%rngLen] = int64(x)
		polyMulT(&c)
	}
	r.draws += k
}

// polyMulModP returns a*b mod P(t), coefficients mod 2^64.
func polyMulModP(a, b *[rngLen]uint64) [rngLen]uint64 {
	var p [2*rngLen - 1]uint64
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			p[i+j] += ai * bj
		}
	}
	// t^d = t^(d-607) * t^607 = t^(d-273) + t^(d-607) mod P, top down.
	for d := len(p) - 1; d >= rngLen; d-- {
		p[d-rngTap] += p[d]
		p[d-rngLen] += p[d]
	}
	return [rngLen]uint64(p[:rngLen])
}

// polyMulT multiplies c by t mod P(t) in place.
func polyMulT(c *[rngLen]uint64) {
	top := c[rngLen-1]
	copy(c[1:], c[:rngLen-1])
	c[0] = top
	c[rngLen-rngTap] += top
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
