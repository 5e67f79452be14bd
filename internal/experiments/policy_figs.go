package experiments

import (
	"fmt"
	"io"

	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "policy-sweep",
		Title: "Policy engine: countermeasure sweep on the asymmetric market",
		Paper: "Sec. VI-C and beyond: fixed-rate taxation across a rate grid, the adaptive Gini-targeting controller, and demurrage, all against the unmanaged baseline — which mechanism buys the flattest stable wealth distribution, and at what redistribution volume?",
		Run: func(p Preset, w io.Writer) error {
			return PolicySweep(DefaultPolicyRates, p, w)
		},
	})
}

// DefaultPolicyRates is the tax-rate grid of the policy-sweep experiment;
// cmd/experiments can override it per run via PolicySweep.
var DefaultPolicyRates = []float64{0.1, 0.2, 0.3}

// PolicySweep runs the policy-parameter sweep: one unmanaged baseline, one
// fixed-rate taxation market per rate, one adaptive-controller market and
// one demurrage market, all replications of the same asymmetric-utilization
// economy, fanned across the worker pool. It writes the comparison table
// (stabilized Gini, pot volumes) and the Gini evolution chart to w.
func PolicySweep(rates []float64, p Preset, w io.Writer) error {
	if len(rates) == 0 {
		return fmt.Errorf("experiments: policy sweep needs at least one tax rate")
	}
	s := scaleOf(p)
	const wealth = 20
	threshold := int64(wealth) // tax above the average wealth, per Sec. VI-C

	// cost is the variant's measured run time at Quick in seconds: every
	// variant simulates the same market, and the policies add work.
	type variant struct {
		name  string
		cost  float64
		build func() ([]policy.Policy, float64, error)
	}
	variants := []variant{{
		name:  "none",
		cost:  0.12,
		build: func() ([]policy.Policy, float64, error) { return nil, 0, nil },
	}}
	for _, rate := range rates {
		rate := rate
		variants = append(variants, variant{
			name: fmt.Sprintf("tax=%s", trace.FormatFloat(rate)),
			cost: 0.16,
			build: func() ([]policy.Policy, float64, error) {
				it, err := policy.NewIncomeTax(rate, threshold)
				if err != nil {
					return nil, 0, err
				}
				return []policy.Policy{it, policy.NewRedistribute()}, 0, nil
			},
		})
	}
	variants = append(variants,
		variant{
			name: "adaptive(g=0.3)",
			cost: 0.23,
			build: func() ([]policy.Policy, float64, error) {
				at, err := policy.NewAdaptiveTax(policy.AdaptiveTaxConfig{
					TargetGini: 0.3, Gain: 0.5, MaxRate: 0.8, Threshold: threshold,
				})
				if err != nil {
					return nil, 0, err
				}
				return []policy.Policy{at, policy.NewRedistribute()}, s.horizon / 50, nil
			},
		},
		variant{
			name: "demurrage=0.05",
			cost: 0.14,
			build: func() ([]policy.Policy, float64, error) {
				d, err := policy.NewDemurrage(0.05, 2*wealth)
				if err != nil {
					return nil, 0, err
				}
				return []policy.Policy{d, policy.NewRedistribute()}, s.horizon / 50, nil
			},
		},
	)

	cost := make([]float64, len(variants))
	for i, v := range variants {
		cost[i] = v.cost
	}
	results, err := parMap(cost, func(i int) (*market.Result, error) {
		cfg, err := asymmetricConfig(s, wealth, 909)
		if err != nil {
			return nil, err
		}
		cfg.Policies, cfg.PolicyEpoch, err = variants[i].build()
		if err != nil {
			return nil, err
		}
		return market.Run(cfg)
	})
	if err != nil {
		return err
	}

	tab := trace.Table{Header: []string{"policy", "stabilized gini", "collected", "redistributed", "injected"}}
	var set trace.Set
	for i, res := range results {
		res.Gini.Name = variants[i].name
		set.Add(res.Gini)
		tab.AddRow(variants[i].name,
			trace.FormatFloat(res.Gini.Tail(s.tailK)),
			fmt.Sprint(res.TaxCollected),
			fmt.Sprint(res.TaxRedistributed),
			fmt.Sprint(res.Injected))
	}
	if err := tab.Write(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nFixed rates flatten more the harder they tax; the adaptive controller")
	fmt.Fprintln(w, "spends only the redistribution volume its Gini target requires, and")
	fmt.Fprintln(w, "demurrage attacks the hoards directly without touching income.")
	return giniChart(w, &set)
}
