package topology

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"creditp2p/internal/xrand"
)

// checkSimple verifies the invariants every generated overlay must satisfy:
// a simple (no loops/multi-edges by construction), connected graph with a
// consistent edge count.
func checkSimple(t *testing.T, g *Graph, wantNodes int) {
	t.Helper()
	if g.NumNodes() != wantNodes {
		t.Fatalf("NumNodes = %d, want %d", g.NumNodes(), wantNodes)
	}
	if !g.IsConnected() {
		t.Fatal("generated overlay not connected")
	}
	var degSum int
	for _, id := range g.Nodes() {
		degSum += g.Degree(id)
		for _, n := range g.Neighbors(id) {
			if n == id {
				t.Fatalf("self-loop at %d", id)
			}
			if !g.HasEdge(n, id) {
				t.Fatalf("asymmetric edge {%d,%d}", id, n)
			}
		}
	}
	if degSum != 2*g.NumEdges() {
		t.Fatalf("degree sum %d != 2*edges %d", degSum, 2*g.NumEdges())
	}
}

func TestScaleFreePaperConfig(t *testing.T) {
	r := xrand.New(42)
	g, err := ScaleFree(ScaleFreeConfig{N: 500, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g, 500)
	// Mean degree near 20 (stub losses and connectivity patching allow some
	// slack).
	if md := g.MeanDegree(); math.Abs(md-20) > 5 {
		t.Errorf("mean degree = %v, want ~20", md)
	}
	// Scale-free: max degree far above the mean.
	seq := g.DegreeSequence()
	if seq[0] < 40 {
		t.Errorf("max degree = %d, expected heavy tail above 40", seq[0])
	}
}

func TestScaleFreeHeavyTailVsRegular(t *testing.T) {
	r := xrand.New(7)
	sf, err := ScaleFree(ScaleFreeConfig{N: 400, Alpha: 2.5, MeanDegree: 12}, r)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := RandomRegular(400, 12, r)
	if err != nil {
		t.Fatal(err)
	}
	// Degree variance of the scale-free overlay dominates the regular one.
	varOf := func(g *Graph) float64 {
		var sum, sumSq float64
		for _, id := range g.Nodes() {
			d := float64(g.Degree(id))
			sum += d
			sumSq += d * d
		}
		n := float64(g.NumNodes())
		mean := sum / n
		return sumSq/n - mean*mean
	}
	if varOf(sf) < 4*varOf(reg) {
		t.Errorf("scale-free degree variance %v not ≫ regular %v", varOf(sf), varOf(reg))
	}
}

func TestScaleFreeValidation(t *testing.T) {
	r := xrand.New(1)
	bad := []ScaleFreeConfig{
		{N: 1, Alpha: 2.5, MeanDegree: 1},
		{N: 10, Alpha: 0, MeanDegree: 3},
		{N: 10, Alpha: 2.5, MeanDegree: 0.5},
		{N: 10, Alpha: 2.5, MeanDegree: 50},
	}
	for _, cfg := range bad {
		if _, err := ScaleFree(cfg, r); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestRandomRegularDegrees(t *testing.T) {
	r := xrand.New(11)
	g, err := RandomRegular(200, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g, 200)
	// Most nodes should have exactly degree 8; stub retries may shave a few.
	exact := 0
	for _, id := range g.Nodes() {
		if g.Degree(id) == 8 {
			exact++
		}
	}
	if exact < 180 {
		t.Errorf("only %d/200 nodes have degree 8", exact)
	}
}

func TestRandomRegularOddProductRejected(t *testing.T) {
	r := xrand.New(1)
	if _, err := RandomRegular(5, 3, r); err == nil {
		t.Error("odd n*d accepted")
	}
}

func TestErdosRenyi(t *testing.T) {
	r := xrand.New(13)
	g, err := ErdosRenyi(300, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g, 300)
	if md := g.MeanDegree(); math.Abs(md-10) > 2 {
		t.Errorf("mean degree = %v, want ~10", md)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	r := xrand.New(17)
	g, err := BarabasiAlbert(300, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g, 300)
	// Mean degree ~ 2m.
	if md := g.MeanDegree(); math.Abs(md-8) > 1.5 {
		t.Errorf("mean degree = %v, want ~8", md)
	}
	// Preferential attachment produces hubs.
	if g.DegreeSequence()[0] < 20 {
		t.Errorf("max degree = %d, expected a hub >= 20", g.DegreeSequence()[0])
	}
}

func TestComplete(t *testing.T) {
	g, err := Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g, 6)
	if g.NumEdges() != 15 {
		t.Errorf("K6 edges = %d, want 15", g.NumEdges())
	}
	for _, id := range g.Nodes() {
		if g.Degree(id) != 5 {
			t.Errorf("degree(%d) = %d, want 5", id, g.Degree(id))
		}
	}
}

func TestRing(t *testing.T) {
	r := xrand.New(1)
	g, err := Ring(10, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g, 10)
	for _, id := range g.Nodes() {
		if g.Degree(id) != 4 {
			t.Errorf("ring degree(%d) = %d, want 4", id, g.Degree(id))
		}
	}
}

func TestAttachPreferentialFavorsHubs(t *testing.T) {
	r := xrand.New(23)
	// Star around node 0.
	g := NewGraph()
	for i := 0; i < 11; i++ {
		if err := g.AddNode(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 11; i++ {
		if err := g.AddEdge(0, i); err != nil {
			t.Fatal(err)
		}
	}
	hubHits := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		id := g.NewNodeID()
		if err := AttachPreferential(g, id, 1, r); err != nil {
			t.Fatal(err)
		}
		if g.HasEdge(id, 0) {
			hubHits++
		}
		// Detach so every trial sees the same star: P(hub) = 11/31 ≈ 0.355.
		if err := g.RemoveNode(id); err != nil {
			t.Fatal(err)
		}
	}
	// Uniform attachment would hit the hub ~18/200 times; preferential
	// should hit ~71. Split the difference generously.
	if hubHits < 45 {
		t.Errorf("hub attached %d/%d times, expected preferential bias", hubHits, trials)
	}
}

func TestAttachRandomDegreeCount(t *testing.T) {
	r := xrand.New(29)
	g, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	id := g.NewNodeID()
	if err := AttachRandom(g, id, 3, r); err != nil {
		t.Fatal(err)
	}
	if g.Degree(id) != 3 {
		t.Errorf("attached degree = %d, want 3", g.Degree(id))
	}
	// Requesting more edges than candidates clamps.
	id2 := g.NewNodeID()
	if err := AttachRandom(g, id2, 100, r); err != nil {
		t.Fatal(err)
	}
	if g.Degree(id2) != 6 {
		t.Errorf("clamped degree = %d, want 6", g.Degree(id2))
	}
}

func TestGeneratorsProperty(t *testing.T) {
	// Property: all generators produce simple connected graphs across seeds.
	f := func(seed int64) bool {
		r := xrand.New(seed)
		g1, err := ScaleFree(ScaleFreeConfig{N: 60, Alpha: 2.5, MeanDegree: 6}, r)
		if err != nil || !g1.IsConnected() {
			return false
		}
		g2, err := RandomRegular(60, 4, r)
		if err != nil || !g2.IsConnected() {
			return false
		}
		g3, err := ErdosRenyi(60, 5, r)
		if err != nil || !g3.IsConnected() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// sameGraph reports whether two graphs have identical node and edge sets.
func sameGraph(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for _, id := range a.Nodes() {
		if !b.HasNode(id) {
			return false
		}
		na, nb := a.Neighbors(id), b.Neighbors(id)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

// TestGeneratorsDeterministic asserts same-seed generation yields identical
// graphs. BarabasiAlbert used to iterate a Go map when wiring each joining
// node, so equal seeds produced different overlays.
func TestGeneratorsDeterministic(t *testing.T) {
	gen := []struct {
		name string
		run  func(r *xrand.RNG) (*Graph, error)
	}{
		{"scale-free", func(r *xrand.RNG) (*Graph, error) {
			return ScaleFree(ScaleFreeConfig{N: 200, Alpha: 2.5, MeanDegree: 10}, r)
		}},
		{"regular", func(r *xrand.RNG) (*Graph, error) { return RandomRegular(200, 8, r) }},
		{"barabasi-albert", func(r *xrand.RNG) (*Graph, error) { return BarabasiAlbert(200, 4, r) }},
	}
	for _, tc := range gen {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.run(xrand.New(99))
			if err != nil {
				t.Fatal(err)
			}
			b, err := tc.run(xrand.New(99))
			if err != nil {
				t.Fatal(err)
			}
			if !sameGraph(a, b) {
				t.Error("same-seed generation produced different graphs")
			}
		})
	}
}

// TestScaleFreeLarge is the scale smoke test: a 100k-node overlay must
// generate quickly and stay structurally sound.
func TestScaleFreeLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large overlay generation")
	}
	r := xrand.New(3)
	g, err := ScaleFree(ScaleFreeConfig{N: 100_000, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100_000 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if !g.IsConnected() {
		t.Fatal("large overlay not connected")
	}
	if md := g.MeanDegree(); math.Abs(md-20) > 5 {
		t.Errorf("mean degree = %v, want ~20", md)
	}
}

// BenchmarkScaleFree100k builds the adaptive-tax scenario's 100k overlay.
// The seed is pinned: build time is heavy-tailed in the overlay seed, so a
// per-iteration seed would make ns/op depend on b.N.
func BenchmarkScaleFree100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := xrand.New(7005)
		if _, err := ScaleFree(ScaleFreeConfig{N: 100_000, Alpha: 2.5, MeanDegree: 20}, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleFree1M builds the free-rider-mix scenario's 1M-peer
// overlay (seed 7002) — the graph-build layer of the paper-scale runs.
func BenchmarkScaleFree1M(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := xrand.New(7002)
		if _, err := ScaleFree(ScaleFreeConfig{N: 1_000_000, Alpha: 2.5, MeanDegree: 20}, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScaleFree1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := xrand.New(int64(i))
		if _, err := ScaleFree(ScaleFreeConfig{N: 1000, Alpha: 2.5, MeanDegree: 20}, r); err != nil {
			b.Fatal(err)
		}
	}
}

// refConfigurationModel is the reference stub matcher the generators used
// before the append-then-transpose build: the same stub list, shuffle and
// retry draws, with every accepted edge sorted into place by AddEdge and
// every duplicate test a binary search through HasEdge. It reports whether
// the stub count was odd.
func refConfigurationModel(degrees []int, retries int, r *xrand.RNG) (*Graph, bool, error) {
	n := len(degrees)
	g := NewGraph()
	for i := 0; i < n; i++ {
		if err := g.AddNode(i); err != nil {
			return nil, false, err
		}
	}
	var stubs []int
	for i, d := range degrees {
		for k := 0; k < d; k++ {
			stubs = append(stubs, i)
		}
	}
	odd := len(stubs)%2 == 1
	if odd {
		stubs = append(stubs, r.Intn(n))
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i+1 < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		ok := a != b && !g.HasEdge(a, b)
		for attempt := 0; !ok && attempt < retries && i+2 < len(stubs); attempt++ {
			k := i + 2 + r.Intn(len(stubs)-i-2)
			stubs[i+1], stubs[k] = stubs[k], stubs[i+1]
			b = stubs[i+1]
			ok = a != b && !g.HasEdge(a, b)
		}
		if ok {
			if err := g.AddEdge(a, b); err != nil {
				return nil, false, err
			}
		}
	}
	if err := EnsureConnected(g, r); err != nil {
		return nil, false, err
	}
	return g, odd, nil
}

// refScaleFree is ScaleFree over the reference matcher.
func refScaleFree(cfg ScaleFreeConfig, r *xrand.RNG) (*Graph, bool, error) {
	maxDeg := cfg.MaxDegree
	if maxDeg <= 0 || maxDeg > cfg.N-1 {
		maxDeg = cfg.N - 1
	}
	pl, err := xrand.PowerLawForMean(maxDeg, cfg.Alpha, cfg.MeanDegree)
	if err != nil {
		return nil, false, err
	}
	degrees := make([]int, cfg.N)
	for i := range degrees {
		degrees[i] = pl.Sample(r)
	}
	return refConfigurationModel(degrees, 20, r)
}

// TestGeneratorsMatchReference pins the stub matcher to the reference:
// across seeds and sizes, ScaleFree and RandomRegular must build the same
// ascending rows as the sorted-insert matcher and leave the RNG at the same
// position (the next draw agrees), so every downstream draw and golden is
// unchanged.
func TestGeneratorsMatchReference(t *testing.T) {
	type gen func(r *xrand.RNG) (*Graph, error)
	type ref func(r *xrand.RNG) (*Graph, bool, error)
	sf := func(cfg ScaleFreeConfig) (gen, ref) {
		return func(r *xrand.RNG) (*Graph, error) { return ScaleFree(cfg, r) },
			func(r *xrand.RNG) (*Graph, bool, error) { return refScaleFree(cfg, r) }
	}
	regular := func(n, d int) (gen, ref) {
		return func(r *xrand.RNG) (*Graph, error) { return RandomRegular(n, d, r) },
			func(r *xrand.RNG) (*Graph, bool, error) {
				degrees := make([]int, n)
				for i := range degrees {
					degrees[i] = d
				}
				return refConfigurationModel(degrees, 50, r)
			}
	}
	type tcase struct {
		name  string
		gen   gen
		ref   ref
		seeds int64
	}
	var cases []tcase
	add := func(name string, g gen, r ref) { cases = append(cases, tcase{name, g, r, 200}) }
	for _, n := range []int{2, 3, 50, 1000} {
		mean := math.Min(6, float64(n-1))
		g, r := sf(ScaleFreeConfig{N: n, Alpha: 2.5, MeanDegree: mean})
		add(fmt.Sprintf("scale-free/n=%d", n), g, r)
		g, r = sf(ScaleFreeConfig{N: n, Alpha: 2.5, MeanDegree: math.Min(2, mean), MaxDegree: 3})
		add(fmt.Sprintf("scale-free-cap3/n=%d", n), g, r)
		d := map[int]int{2: 1, 3: 2, 50: 4, 1000: 10}[n]
		g, r = regular(n, d)
		add(fmt.Sprintf("regular/n=%d", n), g, r)
	}
	// Hub-dominated: a shallow tail with the cap at N-1 puts most stubs on
	// a few hubs, so hub-hub conflicts and retries dominate the matching
	// (and each build costs ~40x a mean-degree one, hence fewer seeds).
	g, r := sf(ScaleFreeConfig{N: 1000, Alpha: 1.5, MeanDegree: 20, MaxDegree: 999})
	cases = append(cases, tcase{"hubs/n=1000", g, r, 50})

	odd := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= tc.seeds; seed++ {
				rg, rr := xrand.New(seed), xrand.New(seed)
				got, err := tc.gen(rg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				want, wasOdd, err := tc.ref(rr)
				if err != nil {
					t.Fatalf("seed %d: reference: %v", seed, err)
				}
				if wasOdd {
					odd++
				}
				if got.NumEdges() != want.NumEdges() || got.NumNodes() != want.NumNodes() {
					t.Fatalf("seed %d: %d nodes/%d edges, reference %d/%d", seed,
						got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
				}
				for _, id := range want.Nodes() {
					if !slices.Equal(got.NeighborsView(id), want.NeighborsView(id)) {
						t.Fatalf("seed %d: row %d = %v, reference %v", seed, id,
							got.NeighborsView(id), want.NeighborsView(id))
					}
				}
				if a, b := rg.Int63(), rr.Int63(); a != b {
					t.Fatalf("seed %d: next draw %d, reference %d", seed, a, b)
				}
			}
		})
	}
	if odd == 0 {
		t.Error("no case produced an odd stub count")
	}
}
