package shard_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"creditp2p/internal/shard"
)

// counters sums a workload's per-lane counters the way Finish reports
// them.
func counters(w shard.Workload) map[string]uint64 {
	res := &shard.Result{Counters: map[string]uint64{}}
	w.Finish(res)
	return res.Counters
}

// sameFloats compares clock arrays bit for bit (+Inf included).
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestPeerMajorSweepMatchesTimeOrder pins the sweep against the dispatch
// it replaced: a des.Scheduler firing every peer's clocks in global
// (time, seq) order through the same workload hooks. With churn and a tax
// pipeline on, at every barrier the two runs hold the same balances,
// streams, flags, clocks and workload counters, and merged the same
// canonical effect sequence — on both workloads and at several lane
// counts.
func TestPeerMajorSweepMatchesTimeOrder(t *testing.T) {
	for _, wl := range []string{"market", "streaming"} {
		for _, p := range []int{1, 3, 4} {
			label := fmt.Sprintf("%s P=%d", wl, p)
			mk := func() shard.Config {
				if wl == "market" {
					return marketConfig(t, p, taxPipeline(t))
				}
				return streamingConfig(t, p, taxPipeline(t))
			}
			sweepCfg, refCfg := mk(), mk()
			sweep, err := shard.New(sweepCfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := shard.New(refCfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sweep.Start(); err != nil {
				t.Fatal(err)
			}
			if err := ref.Start(); err != nil {
				t.Fatal(err)
			}
			shard.UseReferenceDispatch(ref)
			windows, merged := 0, 0
			for sweep.StepWindow() {
				if !ref.StepWindow() {
					t.Fatalf("%s: reference run ended early", label)
				}
				windows++
				if !ref.OutboxesSorted() {
					t.Fatalf("%s window %d: reference outboxes are not canonically ordered", label, windows)
				}
				sb, sr, sf, sn, sl := sweep.PeerState()
				rb, rr, rf, rn, rl := ref.PeerState()
				switch {
				case !slices.Equal(sb, rb):
					t.Fatalf("%s window %d: balances diverge", label, windows)
				case !slices.Equal(sr, rr):
					t.Fatalf("%s window %d: random streams diverge", label, windows)
				case !slices.Equal(sf, rf):
					t.Fatalf("%s window %d: flags diverge", label, windows)
				case !sameFloats(sn, rn) || !sameFloats(sl, rl):
					t.Fatalf("%s window %d: clocks diverge", label, windows)
				case !slices.Equal(sweep.Merged(), ref.Merged()):
					t.Fatalf("%s window %d: merged effect sequences diverge (%d vs %d effects)",
						label, windows, len(sweep.Merged()), len(ref.Merged()))
				case !reflect.DeepEqual(counters(sweepCfg.Workload), counters(refCfg.Workload)):
					t.Fatalf("%s window %d: workload counters diverge: %v vs %v",
						label, windows, counters(sweepCfg.Workload), counters(refCfg.Workload))
				case sweep.EventsFired() != ref.EventsFired():
					t.Fatalf("%s window %d: %d events fired, reference %d", label, windows, sweep.EventsFired(), ref.EventsFired())
				}
				merged += len(sweep.Merged())
			}
			if ref.StepWindow() {
				t.Fatalf("%s: reference run outlasted the sweep", label)
			}
			a, err := sweep.Finish()
			if err != nil {
				t.Fatal(err)
			}
			b, err := ref.Finish()
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, label, a, b)
			if lifecycle := a.Joins + a.Departures; windows < 32 || merged == 0 || lifecycle == 0 {
				t.Fatalf("%s: degenerate comparison: %d windows, %d merged effects, %d lifecycle events",
					label, windows, merged, lifecycle)
			}
		}
	}
}
