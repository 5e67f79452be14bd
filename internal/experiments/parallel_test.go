package experiments

import (
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"creditp2p/internal/market"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// costs returns n pseudo-random point costs with many ties.
func costs(n int, seed int64) []float64 {
	r := xrand.New(seed)
	c := make([]float64, n)
	for i := range c {
		c[i] = float64(r.Intn(7))
	}
	return c
}

func TestParMapOrdersResults(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		out, err := parMap(costs(100, int64(procs)), func(i int) (int, error) { return i * i, nil })
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("GOMAXPROCS=%d: %d results, want 100", procs, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("GOMAXPROCS=%d: out[%d] = %d, want %d", procs, i, v, i*i)
			}
		}
	}
}

func TestParMapReturnsFirstErrorByIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	// The later failure is the costlier point, so it runs first.
	cost := make([]float64, 64)
	cost[40] = 1
	_, err := parMap(cost, func(i int) (int, error) {
		switch i {
		case 9:
			return 0, errA
		case 40:
			return 0, errB
		}
		return i, nil
	})
	if !errors.Is(err, errA) {
		t.Errorf("error = %v, want the lowest-index failure %v", err, errA)
	}
}

func TestParMapRunsEachIndexOnce(t *testing.T) {
	calls := make([]atomic.Int32, 200)
	if _, err := parMap(costs(len(calls), 3), func(i int) (int, error) {
		calls[i].Add(1)
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, n)
		}
	}
}

// TestParMapDispatchesLongestFirst pins the dispatch order with one worker:
// descending cost, ties by ascending index.
func TestParMapDispatchesLongestFirst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cost := []float64{0.3, 2, 0.3, 5, 0, 2, 0.3}
	var got []int
	if _, err := parMap(cost, func(i int) (int, error) {
		got = append(got, i)
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 1, 5, 0, 2, 6, 4}
	if !slices.Equal(got, want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
}

func TestParMapZeroItems(t *testing.T) {
	out, err := parMap(nil, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("parMap(0) = %v, %v", out, err)
	}
}

func TestReplicateSeedsAreStable(t *testing.T) {
	var seeds [8]int64
	out, err := Replicate(8, 1000, func(rep int, seed int64) (int64, error) {
		seeds[rep] = seed
		return seed, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if want := int64(1000 + i); v != want || seeds[i] != want {
			t.Fatalf("replication %d got seed %d, want %d", i, v, want)
		}
	}
}

// TestParallelRunsMatchSequential is the fan-out determinism guarantee:
// simulations dispatched across the pool produce exactly the results the
// sequential loop would.
func TestParallelRunsMatchSequential(t *testing.T) {
	run := func(seed int64) float64 {
		g, err := topology.RandomRegular(60, 6, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := market.Run(market.Config{
			Graph:         g,
			InitialWealth: 10,
			DefaultMu:     1,
			Horizon:       200,
			Seed:          seed + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalGini
	}
	var sequential []float64
	for seed := int64(0); seed < 6; seed++ {
		sequential = append(sequential, run(seed))
	}
	parallel, err := Replicate(6, 0, func(rep int, seed int64) (float64, error) {
		return run(seed), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sequential {
		if sequential[i] != parallel[i] {
			t.Fatalf("replication %d: sequential %v != parallel %v", i, sequential[i], parallel[i])
		}
	}
}
