package streaming

import (
	"errors"
	"testing"

	"creditp2p/internal/policy"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// taxedConfig is the shared taxed-streaming fixture: heterogeneous upload
// caps concentrate income on a few broadband sellers, the engine taxes it
// back down and injects a trickle of fresh credits.
func taxedConfig(t *testing.T, seed int64) Config {
	t.Helper()
	g, err := topology.RandomRegular(80, 8, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	tax, err := policy.NewIncomeTax(0.4, 15)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := policy.NewInjection(1)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:          g,
		StreamRate:     2,
		DelaySeconds:   6,
		UploadCap:      1,
		DownloadCap:    3,
		SourceSeeds:    3,
		InitialWealth:  12,
		HorizonSeconds: 200,
		UploadCapOf:    map[int]int{0: 8, 1: 8, 2: 8, 3: 8},
		Policies:       []policy.Policy{tax, policy.NewRedistribute(), inj},
		PolicyEpoch:    25,
		Seed:           seed + 1,
	}
}

// TestTaxedStreamingGolden pins the taxed-streaming run: same-seed runs
// are byte-identical — including the policy counters the market Result
// also carries — and the engine actually taxed, redistributed and
// injected.
func TestTaxedStreamingGolden(t *testing.T) {
	a, err := Run(taxedConfig(t, 501))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(taxedConfig(t, 501))
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, a, b)
	if a.TaxCollected != b.TaxCollected || a.TaxRedistributed != b.TaxRedistributed || a.Injected != b.Injected {
		t.Fatalf("policy counters differ: %d/%d/%d vs %d/%d/%d",
			a.TaxCollected, a.TaxRedistributed, a.Injected,
			b.TaxCollected, b.TaxRedistributed, b.Injected)
	}
	if a.TaxCollected == 0 {
		t.Error("taxed swarm collected nothing")
	}
	if a.TaxRedistributed == 0 || a.TaxRedistributed > a.TaxCollected {
		t.Errorf("redistribution out of range: %d of %d collected",
			a.TaxRedistributed, a.TaxCollected)
	}
	// Injection mints one credit per live peer per epoch: epochs at 25,
	// 50, ..., 200 with 80 peers and no departures.
	if want := int64(8 * 80); a.Injected != want {
		t.Errorf("Injected = %d, want %d", a.Injected, want)
	}
	if a.ChunksTraded == 0 {
		t.Error("swarm traded nothing")
	}
}

// TestStreamingTaxCompressesWealth compares the taxed swarm to the same
// swarm without policies: taxing broadband sellers above the threshold and
// recycling the pot must end with a flatter wealth distribution.
func TestStreamingTaxCompressesWealth(t *testing.T) {
	taxed, err := Run(taxedConfig(t, 502))
	if err != nil {
		t.Fatal(err)
	}
	cfg := taxedConfig(t, 502)
	cfg.Policies = nil
	cfg.PolicyEpoch = 0
	free, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if taxed.GiniWealth >= free.GiniWealth {
		t.Errorf("taxation did not compress wealth: %v (taxed) vs %v (free)",
			taxed.GiniWealth, free.GiniWealth)
	}
}

// TestStreamingPolicyValidation covers the new Config fields' error paths.
func TestStreamingPolicyValidation(t *testing.T) {
	cfg := taxedConfig(t, 503)
	cfg.PolicyEpoch = -1
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative policy epoch accepted: %v", err)
	}
	cfg = taxedConfig(t, 503)
	cfg.Policies = append(cfg.Policies, nil)
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil policy accepted: %v", err)
	}
}

// TestStreamingDemurrageUnderDrain exercises an epoch-driven policy
// composed with planned teardowns: the engine's depart hook and the
// kernel's burn must coexist without drifting the ledger (Finish's
// conservation check runs inside Run).
func TestStreamingDemurrageUnderDrain(t *testing.T) {
	dem, err := policy.NewDemurrage(0.1, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := taxedConfig(t, 504)
	cfg.Policies = []policy.Policy{dem, policy.NewRedistribute()}
	cfg.Departures = []Departure{{ID: 0, AtSecond: 60}, {ID: 1, AtSecond: 100}, {ID: 2, AtSecond: 140}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Departures != 3 {
		t.Errorf("departures executed = %d, want 3", res.Departures)
	}
	if res.TaxCollected == 0 {
		t.Error("demurrage decayed nothing")
	}
}
