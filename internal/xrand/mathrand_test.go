package xrand

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"creditp2p/internal/snapshot"
)

// mathRand is the oracle for TestRNGMatchesMathRand: an RNG built the way
// this package built it before it owned the generator, a rand.Rand over a
// rand.NewSource stream with a draw counter between the two.
type mathRand struct {
	src  *rand.Rand
	cs   *countedSource
	seed int64
}

type countedSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countedSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countedSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countedSource) Seed(int64) { panic("unused") }

func newMathRand(seed int64) *mathRand {
	cs := &countedSource{src: rand.NewSource(seed).(rand.Source64)}
	return &mathRand{src: rand.New(cs), cs: cs, seed: seed}
}

func (m *mathRand) saveState(w *snapshot.Writer) {
	w.Section("rng")
	w.I64(m.seed)
	w.U64(m.cs.draws)
}

func saved(save func(*snapshot.Writer)) []byte {
	w := snapshot.NewWriter(32)
	save(w)
	return w.Finish()
}

// TestRNGMatchesMathRand interleaves every RNG method at random against the
// math/rand oracle and requires identical values, identical draw counts and
// identical checkpoint bytes throughout. A few dozen times per seed the
// stream under test is replaced by a fresh RNG restored from its checkpoint,
// so LoadState's fast-forward must continue the same stream. Poisson and
// Binomial consume only Float64 draws, which are checked value by value
// elsewhere in the sequence; for them the oracle replays the same number of
// draws, so the streams must stay in lockstep.
func TestRNGMatchesMathRand(t *testing.T) {
	intns := []int{1, 2, 3, 7, 1<<31 - 1, 1<<31 + 5}
	for k := 1; k < 63; k++ {
		intns = append(intns, 1<<k)
	}
	shuffles := []int{0, 1, 2, 100_000}
	for _, seed := range []int64{0, 1, -5, 1<<31 - 1, 1 << 40, 7005, 0x5ca1ab1e} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			r, m := New(seed), newMathRand(seed)
			ops := rand.New(rand.NewSource(seed ^ 0x0dd))
			for step := 0; step < 6000; step++ {
				var got, want any
				op := ops.Intn(16)
				if op == 15 && ops.Intn(20) != 0 {
					continue // a restore replays the whole stream; keep them rare
				}
				switch op {
				case 0:
					got, want = r.Float64(), m.src.Float64()
				case 1:
					n := intns[ops.Intn(len(intns))]
					got, want = r.Intn(n), m.src.Intn(n)
				case 2:
					n := 1 + ops.Intn(1000)
					got, want = r.Intn(n), m.src.Intn(n)
				case 3:
					got, want = r.Int63(), m.src.Int63()
				case 4:
					n := shuffles[ops.Intn(len(shuffles))]
					if n == 100_000 && ops.Intn(50) != 0 {
						n = ops.Intn(100)
					}
					a, b := make([]int, n), make([]int, n)
					for i := range a {
						a[i], b[i] = i, i
					}
					r.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
					m.src.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
					got, want = slices.Equal(a, b), true
				case 5:
					n := ops.Intn(50)
					got, want = slices.Equal(r.Perm(n), m.src.Perm(n)), true
				case 6:
					got, want = r.NormFloat64(), m.src.NormFloat64()
				case 7:
					got, want = r.LogNormal(0.5, 2), math.Exp(0.5+2*m.src.NormFloat64())
				case 8:
					p := ops.Float64()
					got, want = r.Bernoulli(p), m.src.Float64() < p
				case 9:
					got, want = r.Exponential(3), -math.Log(1-m.src.Float64())/3
				case 10:
					got, want = r.Pareto(2, 1.5), 2/math.Pow(1-m.src.Float64(), 1/1.5)
				case 11:
					got, want = r.Uniform(-3, 5), -3+8*m.src.Float64()
				case 12:
					child := r.Split()
					oracle := newMathRand(m.src.Int63())
					got, want = child.Float64(), oracle.src.Float64()
					if child.seed != oracle.seed {
						t.Fatalf("step %d: Split seed %d, want %d", step, child.seed, oracle.seed)
					}
				case 13, 14:
					before := r.draws
					if op == 13 {
						r.Poisson([]float64{0.5, 4, 29, 30, 250}[ops.Intn(5)])
					} else {
						r.Binomial(int64(ops.Intn(5000)), ops.Float64())
					}
					for range r.draws - before {
						m.src.Int63()
					}
				case 15:
					b := saved(r.SaveState)
					if want := saved(m.saveState); !bytes.Equal(b, want) {
						t.Fatalf("step %d: SaveState bytes %x, want %x", step, b, want)
					}
					rd, err := snapshot.Open(b)
					if err != nil {
						t.Fatal(err)
					}
					r = New(99)
					r.LoadState(rd)
					if err := rd.Err(); err != nil {
						t.Fatal(err)
					}
				}
				if got != want {
					t.Fatalf("step %d (op %d): got %v, want %v", step, op, got, want)
				}
				if r.draws != m.cs.draws {
					t.Fatalf("step %d (op %d): %d draws, want %d", step, op, r.draws, m.cs.draws)
				}
			}
		})
	}
}

func BenchmarkRNGFloat64(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for b.Loop() {
		r.Float64()
	}
}

func BenchmarkRNGIntn(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	n := 0
	for b.Loop() {
		n = n%1000 + 1
		r.Intn(n)
	}
}

func BenchmarkRNGShuffle(b *testing.B) {
	r := New(1)
	a := make([]int, 1000)
	b.ReportAllocs()
	for b.Loop() {
		r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	}
}
