package topology

import (
	"errors"
	"fmt"
	"math"

	"creditp2p/internal/xrand"
)

// ErrBadParam is returned for invalid generator parameters.
var ErrBadParam = errors.New("topology: invalid parameter")

// ScaleFreeConfig parameterizes the paper's overlay (Sec. VI): node degrees
// follow a bounded power law P(D) ∝ D^-Alpha with the lower cutoff chosen so
// the mean degree matches MeanDegree.
type ScaleFreeConfig struct {
	N          int     // number of peers
	Alpha      float64 // power-law shape; the paper uses 2.5
	MeanDegree float64 // target average neighbor count; the paper uses 20
	MaxDegree  int     // degree cap; 0 means N-1
}

func (c ScaleFreeConfig) validate() error {
	if c.N < 2 {
		return fmt.Errorf("%w: N=%d", ErrBadParam, c.N)
	}
	if c.Alpha <= 0 {
		return fmt.Errorf("%w: Alpha=%v", ErrBadParam, c.Alpha)
	}
	if c.MeanDegree < 1 || c.MeanDegree > float64(c.N-1) {
		return fmt.Errorf("%w: MeanDegree=%v with N=%d", ErrBadParam, c.MeanDegree, c.N)
	}
	return nil
}

// ScaleFree generates a connected scale-free overlay via the configuration
// model: a degree sequence is drawn from the bounded power law, stubs are
// matched uniformly at random (rejecting self-loops and duplicate edges),
// and any leftover components are stitched together so content can reach
// every peer.
func ScaleFree(cfg ScaleFreeConfig, r *xrand.RNG) (*Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxDeg := cfg.MaxDegree
	if maxDeg <= 0 || maxDeg > cfg.N-1 {
		maxDeg = cfg.N - 1
	}
	pl, err := xrand.PowerLawForMean(maxDeg, cfg.Alpha, cfg.MeanDegree)
	if err != nil {
		return nil, fmt.Errorf("degree sampler: %w", err)
	}

	degrees := make([]int, cfg.N)
	for i := range degrees {
		degrees[i] = pl.Sample(r)
	}
	// Re-draw partners a few times on conflicts, then give up on that pair
	// (slight degree shortfall is acceptable for an overlay).
	return configurationModel(degrees, 20, r)
}

// RandomRegular generates a connected random d-regular-ish graph by stub
// matching. It is the symmetric-utilization topology: every peer has the
// same number of neighbors, so uniform routing yields a doubly stochastic
// transfer matrix and u = (1,...,1) (Sec. V-C1).
func RandomRegular(n, d int, r *xrand.RNG) (*Graph, error) {
	if n < 2 || d < 1 || d >= n {
		return nil, fmt.Errorf("%w: n=%d d=%d", ErrBadParam, n, d)
	}
	if n*d%2 == 1 {
		return nil, fmt.Errorf("%w: n*d must be even", ErrBadParam)
	}
	degrees := make([]int, n)
	for i := range degrees {
		degrees[i] = d
	}
	return configurationModel(degrees, 50, r)
}

// configurationModel builds a connected graph on nodes 0..len(degrees)-1
// by stub matching: node i contributes degrees[i] stubs (one extra stub
// goes to a random node when the total is odd), the stubs are shuffled and
// paired in order. A pair that would form a self-loop or a duplicate edge
// swaps its second stub with a random later one, up to retries times, and
// is dropped if every attempt conflicts. Leftover components are then
// stitched together by EnsureConnected. degrees is consumed as scratch.
//
// Accepted edges are appended to rows reserved from the degree sequence,
// unsorted, so the duplicate test is a linear scan of the shorter of the
// two rows (mean-degree rows are a few cache lines, and a hub is only
// scanned against another hub). One transpose pass then orders every row
// into the dead stub buffer, so the build is O(stubs) plus the scans, with
// no sorted inserts and no per-edge search.
func configurationModel(degrees []int, retries int, r *xrand.RNG) (*Graph, error) {
	n := len(degrees)
	g := NewGraph()
	g.grow(n)
	total := 0
	for i, d := range degrees {
		if err := g.AddNode(i); err != nil {
			return nil, err
		}
		total += d
	}
	if total >= math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d stubs overflow the 31-bit row offsets", ErrBadParam, total)
	}
	// Stub list: node i appears degrees[i] times, padded to an even
	// count. Matched rows go to slab; ordered rows end up in stubs.
	m := total + total%2
	slab := make([]int32, m)
	stubs := make([]int32, 0, m)
	for i, d := range degrees {
		for k := 0; k < d; k++ {
			stubs = append(stubs, int32(i))
		}
	}
	if total%2 == 1 {
		extra := r.Intn(n) // make the stub count even
		stubs = append(stubs, int32(extra))
		degrees[extra]++
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	// rows[v] locates v's matched row in slab, at an offset reserved from
	// its degree. Every accepted edge consumes one stub of each endpoint,
	// so no row outgrows its reservation.
	rows := make([]span, n)
	off := int32(0)
	for v, d := range degrees {
		rows[v].start = off
		off += int32(d)
	}
	for i := 0; i+1 < m; i += 2 {
		a, b := stubs[i], stubs[i+1]
		ok := a != b && !linked(slab, rows[a], rows[b], a, b)
		// Swap stub b with a random later stub to retry the match.
		for attempt := 0; !ok && attempt < retries && i+2 < m; attempt++ {
			k := i + 2 + r.Intn(m-i-2)
			stubs[i+1], stubs[k] = stubs[k], stubs[i+1]
			b = stubs[i+1]
			ok = a != b && !linked(slab, rows[a], rows[b], a, b)
		}
		if ok {
			ra, rb := &rows[a], &rows[b]
			slab[ra.start+ra.n] = b
			ra.n++
			slab[rb.start+rb.n] = a
			rb.n++
			g.edges++
		}
	}

	// Transpose into the stub buffer at the same offsets: walking sources
	// in ascending id and appending each to its neighbors' rows leaves
	// every row ascending, since the graph is undirected. degrees becomes
	// the rows' write cursors; a row keeps its whole reservation as
	// capacity for later churn edges.
	fill := degrees
	clear(fill)
	for u, ru := range rows {
		for _, v := range slab[ru.start : ru.start+ru.n] {
			stubs[int(rows[v].start)+fill[v]] = int32(u)
			fill[v]++
		}
	}
	for v, rv := range rows {
		end := m
		if v+1 < n {
			end = int(rows[v+1].start)
		}
		g.nodes[v].nbrs = stubs[rv.start : rv.start+rv.n : end]
	}
	if err := EnsureConnected(g, r); err != nil {
		return nil, err
	}
	return g, nil
}

// span locates one node's matched row in the build slab.
type span struct{ start, n int32 }

// linked reports whether the undirected edge {a, b} is already present,
// given a's and b's unsorted rows, by scanning the shorter one.
func linked(slab []int32, ra, rb span, a, b int32) bool {
	if rb.n < ra.n {
		ra, b = rb, a
	}
	for _, v := range slab[ra.start : ra.start+ra.n] {
		if v == b {
			return true
		}
	}
	return false
}

// ErdosRenyi generates a connected G(n, p) random graph with
// p = meanDegree/(n-1).
func ErdosRenyi(n int, meanDegree float64, r *xrand.RNG) (*Graph, error) {
	if n < 2 || meanDegree <= 0 || meanDegree > float64(n-1) {
		return nil, fmt.Errorf("%w: n=%d meanDegree=%v", ErrBadParam, n, meanDegree)
	}
	p := meanDegree / float64(n-1)
	g := NewGraph()
	for i := 0; i < n; i++ {
		if err := g.AddNode(i); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bernoulli(p) {
				if err := g.AddEdge(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := EnsureConnected(g, r); err != nil {
		return nil, err
	}
	return g, nil
}

// BarabasiAlbert generates a scale-free graph by preferential attachment:
// each new node connects to m existing nodes with probability proportional
// to their current degree.
func BarabasiAlbert(n, m int, r *xrand.RNG) (*Graph, error) {
	if n < 2 || m < 1 || m >= n {
		return nil, fmt.Errorf("%w: n=%d m=%d", ErrBadParam, n, m)
	}
	g := NewGraph()
	// Seed clique of m+1 nodes.
	for i := 0; i <= m; i++ {
		if err := g.AddNode(i); err != nil {
			return nil, err
		}
		for j := 0; j < i; j++ {
			if err := g.AddEdge(i, j); err != nil {
				return nil, err
			}
		}
	}
	// Repeated-endpoint list: picking a uniform element is degree-
	// proportional sampling.
	endpoints := make([]int, 0, m*(m+1)+2*m*(n-m-1))
	for _, id := range g.Nodes() {
		for k := 0; k < g.Degree(id); k++ {
			endpoints = append(endpoints, id)
		}
	}
	// Scratch for the m distinct targets of one attachment round: a slice
	// preserving selection order plus a mark bitmap cleared between rounds.
	// The former map forced one allocation per joining node and iterated in
	// random order, so same-seed runs built different graphs.
	chosen := make([]int, 0, m)
	mark := make([]bool, n)
	for v := m + 1; v < n; v++ {
		if err := g.AddNode(v); err != nil {
			return nil, err
		}
		chosen = chosen[:0]
		for len(chosen) < m {
			t := endpoints[r.Intn(len(endpoints))]
			if t != v && !mark[t] {
				mark[t] = true
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			if err := g.AddEdge(v, t); err != nil {
				return nil, err
			}
			endpoints = append(endpoints, v, t)
			mark[t] = false
		}
	}
	return g, nil
}

// Complete generates the complete graph K_n — the topology of the
// Dandekar-style complete-graph credit models the paper cites.
func Complete(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParam, n)
	}
	g := NewGraph()
	for i := 0; i < n; i++ {
		if err := g.AddNode(i); err != nil {
			return nil, err
		}
		for j := 0; j < i; j++ {
			if err := g.AddEdge(i, j); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Ring generates a ring lattice where each node links to its k nearest
// neighbors on each side (a 2k-regular connected graph).
func Ring(n, k int, r *xrand.RNG) (*Graph, error) {
	if n < 3 || k < 1 || 2*k >= n {
		return nil, fmt.Errorf("%w: n=%d k=%d", ErrBadParam, n, k)
	}
	g := NewGraph()
	for i := 0; i < n; i++ {
		if err := g.AddNode(i); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= k; d++ {
			j := (i + d) % n
			if !g.HasEdge(i, j) {
				if err := g.AddEdge(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// EnsureConnected links the components of g (if more than one) by adding a
// random edge between each pair of consecutive components.
func EnsureConnected(g *Graph, r *xrand.RNG) error {
	comps := g.Components()
	for i := 1; i < len(comps); i++ {
		a := comps[i-1][r.Intn(len(comps[i-1]))]
		b := comps[i][r.Intn(len(comps[i]))]
		if err := g.AddEdge(a, b); err != nil {
			return err
		}
	}
	return nil
}

// AttachPreferential joins node id to the graph with m edges to existing
// nodes chosen with probability proportional to degree+1 (peer join under
// churn keeps the overlay scale-free-ish).
func AttachPreferential(g *Graph, id, m int, r *xrand.RNG) error {
	if err := g.AddNode(id); err != nil {
		return err
	}
	return attach(g, id, m, r, true)
}

// AttachRandom joins node id with m edges to uniformly random existing
// nodes.
func AttachRandom(g *Graph, id, m int, r *xrand.RNG) error {
	if err := g.AddNode(id); err != nil {
		return err
	}
	return attach(g, id, m, r, false)
}

// AttachFast joins node id with m edges in O(m) expected time, the
// churn-attachment path for 100k+ overlays where AttachPreferential's and
// AttachRandom's O(N) candidate scan per join dominates the simulation.
// Uniform endpoints are drawn by slab rejection (Graph.RandomNode);
// preferential endpoints take one extra hop to a uniform neighbor of a
// uniform node, which biases the pick toward high-degree nodes — the
// classic O(1) approximation of degree-proportional attachment (exact
// degree-proportionality would need a global edge-endpoint array). Ids
// already linked or equal to id are redrawn, with a scan fallback after
// repeated collisions so dense or tiny graphs still terminate.
func AttachFast(g *Graph, id, m int, preferential bool, r *xrand.RNG) error {
	if err := g.AddNode(id); err != nil {
		return err
	}
	if avail := g.NumNodes() - 1; m > avail {
		m = avail
	}
	const retriesPerEdge = 32
	for added := 0; added < m; added++ {
		linked := false
		for try := 0; try < retriesPerEdge; try++ {
			v, ok := g.RandomNode(r)
			if !ok {
				return fmt.Errorf("attach %d: empty graph", id)
			}
			if preferential {
				if d := g.Degree(v); d > 0 {
					v = g.NeighborAt(v, r.Intn(d))
				}
			}
			if v == id || g.HasEdge(id, v) {
				continue
			}
			if err := g.AddEdge(id, v); err != nil {
				return err
			}
			linked = true
			break
		}
		if linked {
			continue
		}
		// Collision storm (small or near-complete graph): link the first
		// non-neighbor in id order, which always exists because m was
		// clamped to the candidate count... unless every remaining node is
		// already a neighbor through the fallback of a previous edge; then
		// stop quietly like attach does when it runs out of candidates.
		if !attachScanFallback(g, id) {
			return nil
		}
	}
	return nil
}

// attachScanFallback links id to the smallest non-neighbor node, reporting
// whether one existed.
func attachScanFallback(g *Graph, id int) bool {
	for _, v := range g.Nodes() {
		if v == id || g.HasEdge(id, v) {
			continue
		}
		if err := g.AddEdge(id, v); err != nil {
			return false
		}
		return true
	}
	return false
}

func attach(g *Graph, id, m int, r *xrand.RNG, preferential bool) error {
	candidates := make([]int, 0, g.NumNodes()-1)
	weights := make([]float64, 0, g.NumNodes()-1)
	for _, v := range g.Nodes() {
		if v == id {
			continue
		}
		candidates = append(candidates, v)
		if preferential {
			weights = append(weights, float64(g.Degree(v)+1))
		} else {
			weights = append(weights, 1)
		}
	}
	if m > len(candidates) {
		m = len(candidates)
	}
	for added := 0; added < m; {
		idx, err := xrand.SampleWeighted(r, weights)
		if err != nil {
			return fmt.Errorf("attach %d: %w", id, err)
		}
		v := candidates[idx]
		if g.HasEdge(id, v) {
			weights[idx] = 0 // already linked; exclude
			continue
		}
		if err := g.AddEdge(id, v); err != nil {
			return err
		}
		weights[idx] = 0
		added++
	}
	return nil
}
