package shard

import (
	"fmt"
	"testing"

	"creditp2p/internal/snapshot"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// lazySlab is a test-only copy of the availability sampler as it stood
// before light trees moved to pick time: every peer's tree is stored in
// one slab at RowStart(g)+g, light trees go stale when a neighbor's
// mirror weight changes and rebuild at their owner's next pick, and hub
// trees are patched at each barrier in the canonical delta order. It
// shadows a live engine: sync replays the engine's last barrier.
type lazySlab struct {
	e     *Engine
	slab  []float32
	built []bool
	// jd is joins+departures as of the last replayed barrier, so sync can
	// tell whether the engine's delta list is the whole window's.
	jd uint64
}

// newLazySlab builds every tree from a freshly built engine's mirror, as
// the stored-tree sampler did during New.
func newLazySlab(e *Engine) *lazySlab {
	o := &lazySlab{e: e, slab: make([]float32, e.part.Edges()+int64(e.n)), built: make([]bool, e.n)}
	for g := int32(0); g < int32(e.n); g++ {
		o.rebuild(g)
	}
	return o
}

func (o *lazySlab) tree(g int32) []float32 {
	off := o.e.part.RowStart(g) + int64(g)
	return o.slab[off : off+int64(o.e.part.Degree(g))+1]
}

func (o *lazySlab) rebuild(g int32) {
	fenFill(o.tree(g), o.e.part.Neighbors(g), o.e.rt.weight)
	o.built[g] = true
}

// pick is the stored-tree PickNeighbor: rebuild a stale tree, then one
// draw and one descent.
func (o *lazySlab) pick(g int32, nbrs []int32, r *xrand.SplitMix64) int32 {
	if !o.built[g] {
		o.rebuild(g)
	}
	tr := o.tree(g)
	u := r.Float64() * float64(tr[0])
	return nbrs[xrand.FenFind(tr, u)]
}

// sync replays the engine's last barrier: every lifecycle delta that moved
// a mirror weight flips its light neighbors stale and patches its hub
// neighbors by the weight change, in delta order.
func (o *lazySlab) sync(t *testing.T) {
	t.Helper()
	e := o.e
	jd := e.joins + e.departures
	if got := uint64(len(e.lifeScratch)); got != jd-o.jd {
		t.Fatalf("barrier left %d lifecycle deltas, want %d; the replay would miss some", got, jd-o.jd)
	}
	o.jd = jd
	for i, le := range e.lifeScratch {
		wd := e.rt.wdelta[i]
		if wd == 0 {
			continue
		}
		g := le.g
		if g < 0 {
			g = -1 - g
		}
		for _, nb := range e.part.Neighbors(g) {
			if e.part.Degree(nb) <= e.rt.heavyDeg {
				o.built[nb] = false
				continue
			}
			tr := o.tree(nb)
			xrand.FenAdd(tr, searchI32(e.part.Neighbors(nb), g), wd)
			tr[0] += wd
		}
	}
}

// oracleWorkload is a minimal market: each live peer fires at rate 2,
// picks a neighbor, and pays it one credit if it was online at the window
// start. In check mode the engine picks and every pick is compared with
// the lazy slab's pick from a copy of the same stream; otherwise the lazy
// slab picks.
type oracleWorkload struct {
	e      *Engine
	o      *lazySlab
	check  bool
	counts [][3]uint64 // per lane: picks, spends, mismatches
}

func (w *oracleWorkload) Setup(e *Engine) error {
	w.e = e
	w.counts = make([][3]uint64, e.p)
	return nil
}

func (w *oracleWorkload) Arm(ln *Lane, g int32, t float64) float64 {
	return t + w.e.rng[g].Exponential(2)
}

func (w *oracleWorkload) OnEvent(ln *Lane, g int32, t float64) float64 {
	r := &w.e.rng[g]
	c := &w.counts[ln.S]
	if nbrs := w.e.Neighbors(g); len(nbrs) > 0 {
		var dst int32
		if w.check {
			shadow := *r
			want := w.o.pick(g, nbrs, &shadow)
			dst = ln.PickNeighbor(t, g, nbrs, r)
			if dst != want || shadow != *r {
				c[2]++
			}
		} else {
			dst = w.o.pick(g, nbrs, r)
		}
		c[0]++
		if w.e.AliveEpoch(dst) && ln.Spend(t, g, dst, 0, 1) {
			c[1]++
		}
	}
	return t + r.Exponential(2)
}

func (w *oracleWorkload) total(k int) uint64 {
	var s uint64
	for _, c := range w.counts {
		s += c[k]
	}
	return s
}

func (w *oracleWorkload) Finish(res *Result) {
	res.Counters["picks"] = w.total(0)
	res.Counters["spends"] = w.total(1)
}

func (w *oracleWorkload) Digest() uint64 { return 0x6f7261636c65 } // "oracle"

func (w *oracleWorkload) SaveState(sw *snapshot.Writer) {
	for _, c := range w.counts {
		sw.U64(c[0])
		sw.U64(c[1])
	}
}

func (w *oracleWorkload) LoadState(r *snapshot.Reader) error {
	for i := range w.counts {
		w.counts[i][0] = r.U64()
		w.counts[i][1] = r.U64()
	}
	return r.Err()
}

// oracleChain is an in-memory checkpoint chain sink.
type oracleChain struct{ chain [][]byte }

func (m *oracleChain) WriteBase(data []byte) error {
	m.chain = [][]byte{append([]byte(nil), data...)}
	return nil
}

func (m *oracleChain) WriteDelta(_ int, data []byte) error {
	m.chain = append(m.chain, append([]byte(nil), data...))
	return nil
}

// TestPickTimeTreesMatchStoredTrees pins the pick-time light trees against
// the stored lazy-stale slab they replaced: every pick of an
// availability-routed churned run matches the stored-tree pick from the
// same stream state, the run's Result matches a run driven entirely by
// the stored-tree sampler, and both hold through a full-snapshot resume
// and a delta-chain resume — at hub thresholds from every-peer-a-hub to
// no hubs at all, and at every lane count.
func TestPickTimeTreesMatchStoredTrees(t *testing.T) {
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 1200, MeanDegree: 8, Alpha: 2.5}, xrand.New(44))
	if err != nil {
		t.Fatal(err)
	}
	for _, heavy := range []int{1, 7, 64, 1024} {
		for _, p := range []int{1, 2, 4, 8} {
			label := fmt.Sprintf("HeavyDegree=%d P=%d", heavy, p)
			mk := func(w *oracleWorkload) Config {
				return Config{
					Graph:         g,
					Shards:        p,
					Horizon:       20,
					Seed:          5,
					InitialWealth: 20,
					Churn:         ChurnConfig{MeanLifespan: 10, MeanDowntime: 4},
					Routing:       RoutingConfig{Mode: RouteAvailability, HeavyDegree: heavy},
					Workload:      w,
				}
			}
			// run drives a run to the horizon — or, with crash > 0, to
			// window crash, through a restore, and on to the horizon —
			// replaying every barrier into the shared oracle.
			run := func(check bool, crash int, delta bool) (*Result, *oracleWorkload) {
				w := &oracleWorkload{check: check}
				sim, err := NewSim(mk(w))
				if err != nil {
					t.Fatal(err)
				}
				o := newLazySlab(sim.e)
				w.o = o
				if err := sim.Start(); err != nil {
					t.Fatal(err)
				}
				var ck *Checkpointer
				sink := &oracleChain{}
				if delta {
					ck = NewCheckpointer(sim.e, sink, CheckpointOptions{Delta: true, RebaseEvery: 64, MaxDeltaFraction: 1e9})
				}
				for k := 0; sim.StepWindow(); k++ {
					o.sync(t)
					if delta && k >= crash-8 && k < crash && k%2 == 0 {
						if err := ck.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
					if crash == 0 || k != crash {
						continue
					}
					var restored *Sim
					w = &oracleWorkload{check: check, o: o}
					if delta {
						if err := ck.Checkpoint(); err != nil {
							t.Fatal(err)
						}
						if err := ck.Close(); err != nil {
							t.Fatal(err)
						}
						if len(sink.chain) < 2 {
							t.Fatalf("%s: chain has %d links; deltas not exercised", label, len(sink.chain))
						}
						restored, err = RestoreChain(mk(w), sink.chain)
					} else {
						restored, err = RestoreSim(mk(w), sim.Snapshot())
					}
					if err != nil {
						t.Fatal(err)
					}
					sim, o.e = restored, restored.e
				}
				res, err := sim.Finish()
				if err != nil {
					t.Fatal(err)
				}
				return res, w
			}
			base, w := run(true, 0, false)
			if n := w.total(2); n != 0 {
				t.Fatalf("%s: %d of %d picks differ from the stored-tree sampler", label, n, w.total(0))
			}
			if base.Counters["picks"] == 0 || base.Joins == 0 {
				t.Fatalf("%s: degenerate run: %+v", label, base)
			}
			if oracle, _ := run(false, 0, false); oracle.Fingerprint() != base.Fingerprint() {
				t.Fatalf("%s: stored-tree run fingerprint %016x, pick-time run %016x", label, oracle.Fingerprint(), base.Fingerprint())
			}
			for _, delta := range []bool{false, true} {
				got, w := run(true, 50, delta)
				if n := w.total(2); n != 0 {
					t.Fatalf("%s delta=%v: %d picks after resume differ from the stored-tree sampler", label, delta, n)
				}
				if got.Fingerprint() != base.Fingerprint() {
					t.Fatalf("%s delta=%v: resumed fingerprint %016x, uninterrupted %016x", label, delta, got.Fingerprint(), base.Fingerprint())
				}
			}
		}
	}
}

// TestHubSlabHoldsOnlyHubTrees is the sampler memory guard: an
// availability-routed engine stores exactly Σ(degree+1) floats over its
// hubs (degree > HeavyDegree), and a degree-routed one every peer's tree.
func TestHubSlabHoldsOnlyHubTrees(t *testing.T) {
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 3000, MeanDegree: 10, Alpha: 2.5}, xrand.New(45))
	if err != nil {
		t.Fatal(err)
	}
	for _, heavy := range []int{1, 7, 64, 1024} {
		for _, mode := range []Routing{RouteAvailability, RouteDegree} {
			e, err := New(Config{
				Graph:    g,
				Shards:   3,
				Horizon:  1,
				Routing:  RoutingConfig{Mode: mode, HeavyDegree: heavy},
				Workload: &oracleWorkload{},
			})
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			hubs := 0
			for v := int32(0); v < int32(e.n); v++ {
				if d := e.part.Degree(v); mode == RouteDegree || d > heavy {
					want += int64(d) + 1
					hubs++
				}
			}
			if got := int64(len(e.rt.fenSlab)); got != want {
				t.Errorf("%v HeavyDegree=%d: slab holds %d floats, want %d over %d stored trees", mode, heavy, got, want, hubs)
			}
		}
	}
}
