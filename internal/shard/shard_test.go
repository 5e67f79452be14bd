package shard_test

import (
	"reflect"
	"strings"
	"testing"

	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/shard"
	"creditp2p/internal/streaming"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

func testGraph(t *testing.T, n int, seed int64) *topology.Graph {
	t.Helper()
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: n, MeanDegree: 6, Alpha: 2.5}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// marketConfig is the matrix test's market scenario: churn plus free
// riders, so lifecycle, lost-in-flight and role assignment are all
// exercised.
func marketConfig(t *testing.T, p int, policies []policy.Policy) shard.Config {
	t.Helper()
	w, err := market.NewShard(market.ShardConfig{Mu: 2.0, Amount: 1, FreeRiderFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shard.Config{
		Graph:         testGraph(t, 600, 42),
		Shards:        p,
		Horizon:       20,
		Seed:          7,
		InitialWealth: 30,
		Churn:         shard.ChurnConfig{MeanLifespan: 15, MeanDowntime: 5},
		Policies:      policies,
		Workload:      w,
	}
	if policies != nil {
		cfg.PolicyEpoch = 2.0
	}
	return cfg
}

func streamingConfig(t *testing.T, p int, policies []policy.Policy) shard.Config {
	t.Helper()
	w, err := streaming.NewShard(streaming.ShardConfig{
		StreamRate: 3, ChunkPrice: 1, RoundPeriod: 1.0, SeedFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shard.Config{
		Graph:         testGraph(t, 500, 43),
		Shards:        p,
		Horizon:       15,
		Seed:          11,
		InitialWealth: 25,
		Churn:         shard.ChurnConfig{MeanLifespan: 12, MeanDowntime: 4},
		Policies:      policies,
		Workload:      w,
	}
	if policies != nil {
		cfg.PolicyEpoch = 1.5
	}
	return cfg
}

func taxPipeline(t *testing.T) []policy.Policy {
	t.Helper()
	tax, err := policy.NewIncomeTax(0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := policy.NewInjection(1)
	if err != nil {
		t.Fatal(err)
	}
	return []policy.Policy{tax, policy.NewRedistribute(), inj}
}

// requireSameResult compares two results field by field (excluding the
// shard count, which is the one legitimately varying field).
func requireSameResult(t *testing.T, label string, base, got *shard.Result) {
	t.Helper()
	if base.Fingerprint() != got.Fingerprint() {
		a, b := *base, *got
		a.Shards, b.Shards = 0, 0
		if !reflect.DeepEqual(a.Counters, b.Counters) {
			t.Errorf("%s: counters diverge: %v vs %v", label, a.Counters, b.Counters)
		}
		t.Fatalf("%s: fingerprint %016x != baseline %016x\nbase: %+v\n got: %+v",
			label, got.Fingerprint(), base.Fingerprint(), a, b)
	}
}

// TestShardCountInvarianceMarket pins the engine's central contract:
// the same seed produces byte-identical results at every shard count,
// on the market workload with churn and free riders, both without and
// with an economic policy pipeline.
func TestShardCountInvarianceMarket(t *testing.T) {
	for _, withPolicies := range []bool{false, true} {
		var pol []policy.Policy
		name := "plain"
		if withPolicies {
			pol = taxPipeline(t)
			name = "policies"
		}
		base, err := shard.Run(marketConfig(t, 1, pol))
		if err != nil {
			t.Fatal(err)
		}
		if base.Events == 0 || base.Transfers == 0 {
			t.Fatalf("%s: degenerate baseline: %+v", name, base)
		}
		if base.Departures == 0 || base.Joins == 0 {
			t.Fatalf("%s: churn not exercised: %+v", name, base)
		}
		if withPolicies && base.TaxCollected == 0 {
			t.Fatalf("policies not exercised: %+v", base)
		}
		for _, p := range []int{2, 4, 8} {
			var freshPol []policy.Policy
			if withPolicies {
				freshPol = taxPipeline(t)
			}
			got, err := shard.Run(marketConfig(t, p, freshPol))
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			requireSameResult(t, name+" market P="+itoa(p), base, got)
		}
	}
}

// TestShardCountInvarianceStreaming is the same matrix on the streaming
// workload (multi-purchase rounds exercising intra-instant sequence
// numbers), with the policy merge path.
func TestShardCountInvarianceStreaming(t *testing.T) {
	base, err := shard.Run(streamingConfig(t, 1, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if base.Counters["chunks_traded"] == 0 || base.Counters["chunks_seeded"] == 0 {
		t.Fatalf("degenerate baseline: %+v", base.Counters)
	}
	for _, p := range []int{2, 4, 8} {
		got, err := shard.Run(streamingConfig(t, p, taxPipeline(t)))
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		requireSameResult(t, "streaming P="+itoa(p), base, got)
	}
}

// TestShardRunTwiceDeterminism pins run-to-run determinism at a fixed
// multi-lane shard count: the goroutine schedule must not leak into
// results.
func TestShardRunTwiceDeterminism(t *testing.T) {
	a, err := shard.Run(marketConfig(t, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	b, err := shard.Run(marketConfig(t, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "market P=4 rerun", a, b)
}

// TestShardCounterConsistency checks the workload accounting identity:
// every attempt is exactly one of the outcome classes.
func TestShardCounterConsistency(t *testing.T) {
	res, err := shard.Run(marketConfig(t, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	sum := c["purchases"] + c["fail_insolvent"] + c["fail_offline"] +
		c["fail_freerider"] + c["fail_isolated"]
	if sum != c["attempts"] {
		t.Fatalf("attempt outcomes sum to %d, want %d (%v)", sum, c["attempts"], c)
	}
	if res.Transfers != c["purchases"] {
		t.Fatalf("transfers %d != purchases %d", res.Transfers, c["purchases"])
	}
	if res.FinalSupply != res.Minted-res.Burned {
		t.Fatalf("supply %d != minted %d - burned %d", res.FinalSupply, res.Minted, res.Burned)
	}
}

// TestShardResumeParity runs to the horizon straight, and again with a
// mid-run snapshot/restore at P=4, and requires identical results — the
// checkpoint captures the complete state at a window boundary.
func TestShardResumeParity(t *testing.T) {
	pol := taxPipeline(t)
	straight, err := shard.Run(marketConfig(t, 4, pol))
	if err != nil {
		t.Fatal(err)
	}

	sim, err := shard.NewSim(marketConfig(t, 4, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ { // partway into the 128-window run
		if !sim.StepWindow() {
			t.Fatal("horizon reached before snapshot point")
		}
	}
	snap := sim.Snapshot()

	resumed, err := shard.RestoreSim(marketConfig(t, 4, taxPipeline(t)), snap)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Now() != sim.Now() {
		t.Fatalf("restored at t=%v, snapshot taken at t=%v", resumed.Now(), sim.Now())
	}
	for resumed.StepWindow() {
	}
	got, err := resumed.Finish()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "resumed P=4", straight, got)
}

// TestShardRestoreRefusesMismatchedShards pins the descriptive error on
// restoring a P=4 snapshot into a P=2 engine.
func TestShardRestoreRefusesMismatchedShards(t *testing.T) {
	sim, err := shard.NewSim(marketConfig(t, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sim.StepWindow()
	}
	snap := sim.Snapshot()

	_, err = shard.RestoreSim(marketConfig(t, 2, nil), snap)
	if err == nil {
		t.Fatal("mismatched shard count accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "4 shards") || !strings.Contains(msg, "Shards=4") {
		t.Fatalf("error does not name the shard counts: %v", err)
	}

	// A config drift beyond the shard count trips the digest check.
	drifted := marketConfig(t, 4, nil)
	drifted.Seed = 8
	if _, err := shard.RestoreSim(drifted, snap); err == nil ||
		!strings.Contains(err.Error(), "digest") {
		t.Fatalf("config drift not refused with a digest error: %v", err)
	}
}

// TestShardRejectsBadConfig covers the validation surface.
func TestShardRejectsBadConfig(t *testing.T) {
	w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 10, 1)
	bad := []shard.Config{
		{Graph: g, Shards: 0, Horizon: 1, Workload: w},
		{Graph: nil, Shards: 1, Horizon: 1, Workload: w},
		{Graph: g, Shards: 1, Horizon: 0, Workload: w},
		{Graph: g, Shards: 1, Horizon: 1, Workload: nil},
		{Graph: g, Shards: 1, Horizon: 1, Workload: w, Window: 2},
		{Graph: g, Shards: 1, Horizon: 1, Workload: w, Churn: shard.ChurnConfig{MeanLifespan: 1}},
	}
	for i, cfg := range bad {
		if _, err := shard.New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func itoa(v int) string {
	return string(rune('0' + v))
}
