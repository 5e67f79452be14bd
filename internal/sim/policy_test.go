package sim

import (
	"errors"
	"testing"

	"creditp2p/internal/policy"
)

// probePolicy records every hook the kernel drives.
type probePolicy struct {
	policy.Base
	epochs  []float64
	joins   []int32
	departs []int32
	incomes int
}

func (p *probePolicy) OnEpoch(_ policy.Host, now float64) { p.epochs = append(p.epochs, now) }
func (p *probePolicy) OnJoin(_ policy.Host, px int32)     { p.joins = append(p.joins, px) }
func (p *probePolicy) OnDepart(_ policy.Host, px int32)   { p.departs = append(p.departs, px) }
func (p *probePolicy) OnIncome(policy.Host, int32, int64, int64) int64 {
	p.incomes++
	return 0
}

// wakeWorkload implements CreditWaker on top of the stub workload.
type wakeWorkload struct {
	fuzzWorkload
	woken []int32
}

func (w *wakeWorkload) OnCredit(px int32) { w.woken = append(w.woken, px) }

// TestKernelDrivesPolicyHooks pins the kernel's half of the engine
// contract: the epoch fires at epochEvery, 2*epochEvery, ... up to the
// horizon; joins (initial and explicit), departures and income route
// through the pipeline; Pay and Mint wake the workload.
func TestKernelDrivesPolicyHooks(t *testing.T) {
	w := &wakeWorkload{}
	k, err := NewKernel(Config{InitialWealth: 10, Horizon: 100, Seed: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	probe := &probePolicy{}
	pot, err := k.OpenExternal(-1, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.BindPolicies(policy.NewEngine(probe), pot, 30); err != nil {
		t.Fatal(err)
	}
	if !k.HasPolicies() {
		t.Fatal("HasPolicies = false after bind")
	}
	var pxs []int32
	for id := 0; id < 3; id++ {
		px, err := k.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		pxs = append(pxs, px)
	}
	if len(probe.joins) != 3 {
		t.Fatalf("join hook fired %d times, want 3", len(probe.joins))
	}
	k.PolicyIncome(pxs[0], 5, 5)
	if probe.incomes != 1 {
		t.Fatalf("income hook fired %d times, want 1", probe.incomes)
	}
	if !k.Depart(pxs[2]) {
		t.Fatal("departure refused")
	}
	if len(probe.departs) != 1 || probe.departs[0] != pxs[2] {
		t.Fatalf("depart hook log = %v", probe.departs)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	k.Run()
	// Epochs at 30, 60, 90 — the next (120) is past the horizon.
	want := []float64{30, 60, 90}
	if len(probe.epochs) != len(want) {
		t.Fatalf("epochs fired at %v, want %v", probe.epochs, want)
	}
	for i, at := range want {
		if probe.epochs[i] != at {
			t.Fatalf("epoch %d at %v, want %v", i, probe.epochs[i], at)
		}
	}
	// The host's Pay and Mint wake the workload; Collect does not.
	h := &k.host
	if !h.Pay(pxs[0], 7) {
		t.Fatal("Pay failed")
	}
	if !h.Mint(pxs[1], 3) {
		t.Fatal("Mint failed")
	}
	if !h.Collect(pxs[0], 2) {
		t.Fatal("Collect failed")
	}
	if len(w.woken) != 2 || w.woken[0] != pxs[0] || w.woken[1] != pxs[1] {
		t.Fatalf("wake log = %v, want [%d %d]", w.woken, pxs[0], pxs[1])
	}
	if got := k.Ledger.BalanceAt(pot); got != 40-7+2 {
		t.Fatalf("pot = %d, want 35", got)
	}
	if err := k.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestBindPoliciesValidation covers the bind-time error paths and the
// nil-engine no-op.
func TestBindPoliciesValidation(t *testing.T) {
	w := &fuzzWorkload{}
	k, err := NewKernel(Config{InitialWealth: 5, Horizon: 10, Seed: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.BindPolicies(nil, 0, 1); err != nil {
		t.Errorf("nil engine rejected: %v", err)
	}
	if k.HasPolicies() {
		t.Error("nil engine bound")
	}
	if err := k.BindPolicies(policy.NewEngine(), 0, -1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative epoch accepted: %v", err)
	}
	if _, err := k.Join(0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Join(1); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.BindPolicies(policy.NewEngine(), 0, 1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bind after Start accepted: %v", err)
	}
	// PolicyIncome and PolicyTotals are no-ops without an engine.
	k.PolicyIncome(0, 0, 1)
	if tot := k.PolicyTotals(); tot != (policy.Totals{}) {
		t.Errorf("unbound totals = %+v", tot)
	}
}

// TestPolicyPipelineConservesUnderChurn drives a full pipeline — income
// tax, pot-funded subsidy, redistribution — under churn and leans on
// Finish's conservation and balance-histogram sync checks.
func TestPolicyPipelineConservesUnderChurn(t *testing.T) {
	g := ring(t, 20)
	w := &wakeWorkload{}
	k, err := NewKernel(Config{
		Graph:         g,
		InitialWealth: 10,
		Horizon:       200,
		Seed:          5,
		SampleEvery:   20,
		Churn: &Churn{
			ArrivalRate:  0.3,
			MeanLifespan: 60,
			AttachDegree: 2,
		},
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	pot, err := k.OpenExternal(-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tax, err := policy.NewIncomeTax(0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := policy.NewNewcomerSubsidy(4, true)
	if err != nil {
		t.Fatal(err)
	}
	eng := policy.NewEngine(tax, sub, policy.NewRedistribute())
	if err := k.BindPolicies(eng, pot, 25); err != nil {
		t.Fatal(err)
	}
	var pxs []int32
	for _, id := range g.Nodes() {
		px, err := k.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		pxs = append(pxs, px)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	// Feed incomes through the pipeline by hand: transfer between
	// peers, then route the hook as a workload would.
	for i := 0; i+1 < len(pxs); i += 2 {
		from, to := pxs[i], pxs[i+1]
		if !k.Peers.At(from).Alive || !k.Peers.At(to).Alive {
			continue
		}
		if k.Transfer(from, to, 3) {
			k.PolicyIncome(to, k.Balance(to)-3, 3)
		}
	}
	k.Run()
	if err := k.Finish(); err != nil {
		t.Fatal(err)
	}
}
