package experiments

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// parMap evaluates fn for every index 0..len(cost)-1 across a bounded
// worker pool and returns the results in index order. It is the fan-out
// engine behind the figure experiments: every figure point / replication is
// an independent simulation whose randomness is derived from seeds embedded
// in its own config, so running them concurrently yields bit-identical
// results to the sequential loop — workers share no RNG and no mutable state.
//
// cost[i] is point i's expected work in any consistent unit. Workers take
// indexes in descending cost order (ties by index), so the longest points
// start first and the cheap ones fill the gaps at the end of the sweep
// instead of leaving one long point running alone. The order never affects
// results, only the makespan.
//
// All indices are evaluated even if some fail; the first error by index
// order is returned so the caller's failure is deterministic too.
func parMap[T any](cost []float64, fn func(i int) (T, error)) ([]T, error) {
	n := len(cost)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost[b], cost[a]) })
	results := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), n)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				i := order[k]
				results[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Replicate runs n independent seeded replications of run across the worker
// pool and returns the per-replication outputs in replication order. Seeds
// are baseSeed, baseSeed+1, ... so a replication set is addressable and
// reproducible; run must derive all of its randomness from the seed it is
// handed. Replications are equally costly, so they start in index order.
func Replicate[T any](n int, baseSeed int64, run func(rep int, seed int64) (T, error)) ([]T, error) {
	return parMap(make([]float64, n), func(i int) (T, error) {
		return run(i, baseSeed+int64(i))
	})
}
