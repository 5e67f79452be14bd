package stats

import (
	"testing"

	"creditp2p/internal/xrand"
)

// sortGini recomputes the Gini from scratch through the sorting path.
func sortGini(t *testing.T, balances []int64) float64 {
	t.Helper()
	g, _, err := GiniIntsInPlace(balances, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// histOf counts balances by value into lanes histograms, dealing them out
// round-robin the way the sharded kernel splits peers across lanes.
func histOf(balances []int64, lanes int) [][]int64 {
	hists := make([][]int64, lanes)
	for i, v := range balances {
		h := &hists[i%lanes]
		for int64(len(*h)) <= v {
			*h = append(*h, 0)
		}
		(*h)[v]++
	}
	return hists
}

func TestGiniHistEmptyAndZero(t *testing.T) {
	if _, ok := GiniHist(); ok {
		t.Error("GiniHist() of no histograms reported a population")
	}
	if _, ok := GiniHist([]int64{0, 0, 0}, nil); ok {
		t.Error("GiniHist of empty histograms reported a population")
	}
	g, ok := GiniHist([]int64{5})
	if !ok || g != 0 {
		t.Errorf("all-zero Gini = %v, %v; want 0, true", g, ok)
	}
}

// TestGiniHistMatchesSort is the bit-identity contract: after every
// mutation of a randomized balance population — transfers, deposits, joins,
// departs, balances far past the histogram's earlier length — the
// histogram Gini must equal the sorted recomputation exactly (==, not
// within epsilon), for one histogram and for the population split across
// several. The simulators rely on this to keep Result series byte-identical
// to the sorting Gini.
func TestGiniHistMatchesSort(t *testing.T) {
	r := xrand.New(71)
	var balances []int64
	for i := 0; i < 40; i++ {
		balances = append(balances, int64(r.Intn(30)))
	}
	check := func(step int) {
		t.Helper()
		want := sortGini(t, balances)
		for _, lanes := range []int{1, 3} {
			got, ok := GiniHist(histOf(balances, lanes)...)
			if !ok {
				t.Fatalf("step %d, %d lanes: no population", step, lanes)
			}
			if got != want {
				t.Fatalf("step %d, %d lanes: histogram %v != sorted %v (not bit-identical)", step, lanes, got, want)
			}
		}
	}
	check(-1)
	for step := 0; step < 2000; step++ {
		switch r.Intn(10) {
		case 0: // join
			balances = append(balances, int64(r.Intn(50)))
		case 1: // depart, burning the balance
			if len(balances) > 1 {
				i := r.Intn(len(balances))
				balances[i] = balances[len(balances)-1]
				balances = balances[:len(balances)-1]
			}
		case 2: // windfall deposit far beyond the current domain
			balances[r.Intn(len(balances))] += int64(r.Intn(5000))
		default: // transfer of one credit, the simulators' hot case
			from, to := r.Intn(len(balances)), r.Intn(len(balances))
			if from == to || balances[from] == 0 {
				continue
			}
			balances[from]--
			balances[to]++
		}
		if step%50 == 0 {
			check(step)
		}
	}
	check(2000)
}

func TestGiniHistLargeScaleExactness(t *testing.T) {
	// Large aggregates: D and n*S stay far below 2^53, so the float
	// division must still match the sorting path exactly.
	r := xrand.New(5)
	balances := make([]int64, 20000)
	for i := range balances {
		balances[i] = int64(r.Intn(4000))
	}
	want := sortGini(t, balances)
	got, ok := GiniHist(histOf(balances, 1)...)
	if !ok || got != want {
		t.Fatalf("histogram %v != sorted %v at 20k population", got, want)
	}
}

func BenchmarkGiniHist(b *testing.B) {
	r := xrand.New(9)
	balances := make([]int64, 100_000)
	for i := range balances {
		balances[i] = int64(r.Intn(200))
	}
	hists := histOf(balances, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GiniHist(hists...)
	}
}
