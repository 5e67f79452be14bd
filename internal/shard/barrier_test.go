package shard_test

import (
	"testing"

	"creditp2p/internal/shard"
)

// TestBarrierSteadyStateZeroAlloc pins the barrier pipeline's recycling
// contract: once the run has warmed past its growth phase (outboxes,
// merge scratch, lifecycle runs and metric series all at their high-water
// capacity), a full window — dispatch, k-way merge, canonical apply,
// churn replay, sampling — allocates nothing. P=1 keeps the measurement
// exact: the lane runs inline on the measuring goroutine, so every
// allocation in the pipeline is attributed.
func TestBarrierSteadyStateZeroAlloc(t *testing.T) {
	cfg := marketConfig(t, 1, taxPipeline(t))
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// Warm through the growth phase, past a trim boundary, leaving windows
	// for the measurement below.
	for i := 0; i < 90; i++ {
		if !e.StepWindow() {
			t.Fatalf("horizon exhausted during warmup at window %d", i)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if !e.StepWindow() {
			t.Fatal("horizon exhausted during measurement")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state StepWindow allocates %v per window, want 0", allocs)
	}
	ti := e.Timings()
	if ti.MergedEvents == 0 {
		t.Fatal("policy run merged no events; the measurement missed the merge path")
	}
}

// TestTimingsBreakdown smoke-tests the phase accounting on both barrier
// paths: windows are counted, dispatch time accumulates, the merge phase
// engages exactly when policies do, the phase sum equals Total, and the
// lanes' busy times nest inside the dispatch phase (each window's slowest
// lane within the phase's wall time, every lane within the slowest).
func TestTimingsBreakdown(t *testing.T) {
	run := func(pols bool) shard.Timings {
		var cfg shard.Config
		if pols {
			cfg = marketConfig(t, 2, taxPipeline(t))
		} else {
			cfg = marketConfig(t, 2, nil)
		}
		e, err := shard.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		for e.StepWindow() {
		}
		if _, err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		return e.Timings()
	}

	withPol := run(true)
	if withPol.Windows == 0 || withPol.Dispatch == 0 {
		t.Fatalf("policy run recorded no work: %+v", withPol)
	}
	if withPol.MergedEvents == 0 {
		t.Fatalf("policy run merged no events: %+v", withPol)
	}
	if got := withPol.Dispatch + withPol.Merge + withPol.Apply + withPol.Churn + withPol.Publish; got != withPol.Total() {
		t.Fatalf("Total() = %v, phase sum = %v", withPol.Total(), got)
	}

	noPol := run(false)
	if noPol.Merge != 0 || noPol.MergedEvents != 0 {
		t.Fatalf("no-policy run took the merge path: %+v", noPol)
	}
	if noPol.Windows == 0 || noPol.Dispatch == 0 {
		t.Fatalf("no-policy run recorded no work: %+v", noPol)
	}
	for _, ti := range []shard.Timings{withPol, noPol} {
		if ti.LaneBusyMax == 0 || ti.LaneBusyMax > ti.Dispatch ||
			ti.LaneBusy < ti.LaneBusyMax || ti.LaneBusy > 2*ti.LaneBusyMax {
			t.Errorf("two-lane busy times out of bounds: sum %v, per-window max %v, dispatch %v",
				ti.LaneBusy, ti.LaneBusyMax, ti.Dispatch)
		}
	}
}
