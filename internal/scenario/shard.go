package scenario

import (
	"fmt"
	"math"

	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/shard"
	"creditp2p/internal/streaming"
	"creditp2p/internal/trace"
	"creditp2p/internal/xrand"
)

// This file compiles scenarios onto the sharded multi-core kernel
// (internal/shard). The sharded engine is its own model — open-loop
// workloads, fixed-slot lifecycle churn, barrier-granular credit
// visibility — so a sharded run is not byte-comparable to the
// single-threaded engines' output; what it guarantees instead is that
// its own output is byte-identical at every shard count. The mapping
// below reuses the scenario's declared knobs where the models share a
// concept (population, horizon, endowment, spending rate, free riders,
// seeds, policy pipeline) and derives the rest:
//
//   - Lifecycle churn: the declared MeanLifespan (horizon-compressed as
//     usual) sets the online spell; the offline spell is a quarter of it,
//     keeping a ~80% steady-state availability — the open-network regime
//     of Sec. VI-E over a fixed peer-slot table.
//   - Streaming seeds: the declared seeder fraction, or the SourceSeeds
//     count converted to a fraction of the declared population.
//   - Arrival-pattern shaping (flash crowds, diurnal cycles): the
//     declared pattern modulates the rejoin rate of the fixed-slot
//     lifecycle process — rateFn's shape (evaluated at base rate 1)
//     multiplies the constant 1/MeanDowntime, and the same
//     piecewise-constant envelope drives Lewis–Shedler thinning inside
//     the kernel. A flash crowd pulls departed peers back online during
//     the spike; a diurnal cycle swings the online population with the
//     declared period.
//   - Routing: the declared market routing mode (uniform, degree,
//     availability) compiles onto the kernel's barrier-frozen weighted
//     samplers for market and streaming workloads alike.

// ShardConfig compiles the scenario into a sharded-kernel configuration
// at the given scale and shard count. Shards=1 is the reference lane
// layout: the same model and the same bytes as any other shard count,
// single-threaded.
func (sc Scenario) ShardConfig(scale Scale, shards int) (shard.Config, error) {
	d, err := sc.dims(scale)
	if err != nil {
		return shard.Config{}, err
	}
	g, err := sc.Topology.build(d.n, xrand.New(sc.Seed))
	if err != nil {
		return shard.Config{}, err
	}
	cfg := shard.Config{
		Graph:         g,
		Shards:        shards,
		Horizon:       d.horizon,
		Seed:          sc.Seed,
		InitialWealth: sc.Credit.InitialWealth,
	}
	if sc.Churn.Pattern != ChurnNone && sc.Churn.MeanLifespan > 0 {
		life := sc.Churn.MeanLifespan * d.ratio
		cfg.Churn = shard.ChurnConfig{MeanLifespan: life, MeanDowntime: life / 4}
		// Time-varying arrival patterns modulate the rejoin rate: rateFn
		// at base rate 1 yields the pure shape (1 outside a flash-crowd
		// spike, 1+amp*sin for diurnal), scaled by the constant rejoin
		// rate. Constant churn returns nil shapes — the exact one-draw
		// path, byte-identical to the pre-shaping kernel.
		shape, env, err := sc.Churn.rateFn(1, d.horizon)
		if err != nil {
			return shard.Config{}, err
		}
		if shape != nil {
			base := 1 / cfg.Churn.MeanDowntime
			cfg.Churn.RejoinRate = func(t float64) float64 { return base * shape(t) }
			cfg.Churn.RejoinEnvelope = func(t float64) (float64, float64) {
				r, until := env(t)
				return base * r, until
			}
			cfg.Churn.RateDigest = sc.Churn.shapeDigest(d.horizon)
		}
	}
	switch sc.Market.Routing {
	case market.RouteDegreeWeighted:
		cfg.Routing.Mode = shard.RouteDegree
	case market.RouteAvailability:
		cfg.Routing.Mode = shard.RouteAvailability
	}

	// The policy pipeline compiles exactly like the streaming path: the
	// declarative TaxRate/Inject* knobs become engine stages ahead of the
	// declared pipeline, sharing the engine's one epoch clock.
	var pols []policy.Policy
	epoch := 0.0
	if sc.Credit.TaxRate > 0 {
		it, err := policy.NewIncomeTax(sc.Credit.TaxRate, sc.Credit.TaxThreshold)
		if err != nil {
			return shard.Config{}, err
		}
		pols = append(pols, it, policy.NewRedistribute())
	}
	if sc.Credit.InjectAmount > 0 {
		if sc.Credit.InjectPeriod <= 0 || sc.Credit.InjectPeriod > 1 {
			return shard.Config{}, fmt.Errorf("%w: injection period %v (fraction of horizon)", ErrBadScenario, sc.Credit.InjectPeriod)
		}
		inj, err := policy.NewInjection(sc.Credit.InjectAmount)
		if err != nil {
			return shard.Config{}, err
		}
		pols = append(pols, inj)
		epoch = sc.Credit.InjectPeriod * d.horizon
	}
	declared, depoch, err := sc.Credit.compilePolicies(d.horizon)
	if err != nil {
		return shard.Config{}, err
	}
	pols = append(pols, declared...)
	if depoch > 0 {
		if epoch > 0 && depoch != epoch {
			return shard.Config{}, fmt.Errorf("%w: policy epoch %v conflicts with injection period %v (the engine has one epoch clock)", ErrBadScenario, depoch, epoch)
		}
		epoch = depoch
	}
	cfg.Policies = pols
	cfg.PolicyEpoch = epoch

	switch sc.Workload {
	case WorkloadMarket:
		w, err := market.NewShard(market.ShardConfig{
			Mu:            sc.Market.DefaultMu,
			Amount:        1,
			FreeRiderFrac: sc.Market.FreeRiderFrac,
		})
		if err != nil {
			return shard.Config{}, err
		}
		cfg.Workload = w
	case WorkloadStreaming:
		frac := sc.Streaming.SeederFrac
		if frac == 0 && sc.Streaming.SourceSeeds > 0 {
			frac = float64(sc.Streaming.SourceSeeds) / float64(sc.Topology.N)
		}
		w, err := streaming.NewShard(streaming.ShardConfig{
			StreamRate:  sc.Streaming.StreamRate,
			ChunkPrice:  1,
			RoundPeriod: 1.0,
			SeedFrac:    frac,
		})
		if err != nil {
			return shard.Config{}, err
		}
		cfg.Workload = w
	default:
		return shard.Config{}, fmt.Errorf("%w: workload %d", ErrBadScenario, int(sc.Workload))
	}
	return cfg, nil
}

// shapeDigest identifies the compiled rejoin-shape functions for the
// snapshot config digest (closures cannot be hashed): the pattern, the
// horizon it was compiled against, and every shape parameter.
func (c Churn) shapeDigest(horizon float64) uint64 {
	h := uint64(14695981039346656037)
	fold := func(v uint64) { h = (h ^ v) * 1099511628211 }
	fold(uint64(c.Pattern))
	fold(math.Float64bits(horizon))
	fold(math.Float64bits(c.SpikeStart))
	fold(math.Float64bits(c.SpikeLen))
	fold(math.Float64bits(c.SpikeFactor))
	fold(math.Float64bits(c.Period))
	fold(math.Float64bits(c.Amplitude))
	return h
}

// RunSharded executes the scenario on the sharded kernel with the given
// lane count. shards <= 1 falls back to the legacy single-threaded
// engines via Run — existing invocations and their byte-identical
// outputs are untouched; the sharded model engages only when asked for.
func RunSharded(sc Scenario, scale Scale, shards int) (*Outcome, error) {
	return RunShardedResumable(sc, scale, shards, Resume{})
}

// RunShardedResumable is RunSharded with crash/resume support: periodic
// snapshots flow to rs.Sink, and a non-nil rs.Snapshot resumes a
// checkpointed run instead of starting fresh. Sharded snapshots are
// barrier-aligned, so the event-count cadence quantizes up to window
// boundaries: a snapshot lands at the first barrier at or after each
// multiple of rs.CheckpointEvery dispatched events. The completed run's
// Outcome is byte-identical to RunSharded's.
func RunShardedResumable(sc Scenario, scale Scale, shards int, rs Resume) (*Outcome, error) {
	if shards <= 1 {
		return RunResumable(sc, scale, rs)
	}
	d, err := sc.dims(scale)
	if err != nil {
		return nil, err
	}
	cfg, err := sc.ShardConfig(scale, shards)
	if err != nil {
		return nil, err
	}
	var s *shard.Sim
	switch {
	case rs.Chain != nil:
		s, err = shard.RestoreChain(cfg, rs.Chain)
	case rs.Snapshot != nil:
		s, err = shard.RestoreSim(cfg, rs.Snapshot)
	default:
		if s, err = shard.NewSim(cfg); err == nil {
			err = s.Start()
		}
	}
	if err != nil {
		return nil, err
	}
	if err := driveSharded(s, rs); err != nil {
		return nil, err
	}
	res, err := s.Finish()
	if err != nil {
		return nil, err
	}
	t := s.Engine().Timings()
	return &Outcome{
		Name:    sc.Name,
		Scale:   scale,
		N:       d.n,
		Horizon: d.horizon,
		Shards:  shards,
		Routing: s.Engine().RoutingMode().String(),
		Shard:   res,
		Timings: &t,
	}, nil
}

// driveSharded steps a sharded run window-by-window, snapshotting at the
// first barrier at or after each multiple of rs.CheckpointEvery dispatched
// events. With a ChainSink the pipelined checkpointer takes over:
// parallel fragment encode at the barrier, seal+write overlapped with the
// following windows; the plain Sink path stays fully synchronous.
func driveSharded(s *shard.Sim, rs Resume) error {
	if rs.CheckpointEvery <= 0 || (rs.Sink == nil && rs.ChainSink == nil) {
		for s.StepWindow() {
		}
		return nil
	}
	every := uint64(rs.CheckpointEvery)
	next := every
	// After a restore, pick the cadence up past the events the run had
	// already dispatched at the checkpoint.
	if n := s.Engine().EventsFired(); n >= next {
		next = (n/every + 1) * every
	}
	if rs.ChainSink != nil {
		c := shard.NewCheckpointer(s.Engine(), rs.ChainSink, shard.CheckpointOptions{
			Delta:       rs.Delta,
			RebaseEvery: rs.RebaseEvery,
		})
		for s.StepWindow() {
			if n := s.Engine().EventsFired(); n >= next {
				if err := c.Checkpoint(); err != nil {
					return fmt.Errorf("scenario: checkpoint after %d events: %w", n, err)
				}
				next = (n/every + 1) * every
			}
		}
		if err := c.Close(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		return nil
	}
	for s.StepWindow() {
		if n := s.Engine().EventsFired(); n >= next {
			if err := rs.Sink(s.Snapshot()); err != nil {
				return fmt.Errorf("scenario: checkpoint after %d events: %w", n, err)
			}
			next = (n/every + 1) * every
		}
	}
	return nil
}

// RunShardedNamed looks a scenario up and runs it on the sharded kernel.
func RunShardedNamed(name string, scale Scale, shards int) (*Outcome, error) {
	sc, err := Get(name)
	if err != nil {
		return nil, err
	}
	return RunSharded(sc, scale, shards)
}

// reportShard renders the sharded-run rows of the outcome table.
func (o *Outcome) reportShard(tab *trace.Table) {
	r := o.Shard
	tab.AddRow("shards", fmt.Sprint(o.Shards))
	if o.Routing != "" {
		tab.AddRow("routing", o.Routing)
	}
	tab.AddRow("events", fmt.Sprint(r.Events))
	tab.AddRow("transfers", fmt.Sprint(r.Transfers))
	tab.AddRow("joins / departures", fmt.Sprintf("%d / %d", r.Joins, r.Departures))
	tab.AddRow("lost in flight", fmt.Sprintf("%d (%d credits)", r.LostInFlight, r.LostAmount))
	tab.AddFloats("final wealth Gini", r.FinalGini)
	tab.AddFloats("stabilized Gini (tail-10)", r.Gini.Tail(10))
	tab.AddFloats("final population", float64(r.FinalPopulation))
	tab.AddRow("tax collected / redistributed", fmt.Sprintf("%d / %d", r.TaxCollected, r.TaxRedistributed))
	tab.AddRow("injected", fmt.Sprint(r.Injected))
	if math.IsNaN(r.FinalGini) {
		tab.AddRow("warning", "empty population at horizon")
	}
}
