package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"time"

	"creditp2p"
	"creditp2p/internal/scenario"
	"creditp2p/internal/shard"
	"creditp2p/internal/snapshot"
	"creditp2p/internal/topology"
)

// workload is one input set the benchmark runs. Every repetition of a
// workload runs in a fresh process (see child.go), so peak RSS belongs to
// that repetition alone.
type workload struct {
	name string
	// kernel describes a sharded-kernel run; nil for paper-quick.
	kernel *kernelRun
	// scaling adds a P=1 repetition to the traced run for shard.scaling_p2.
	scaling bool
}

// kernelRun is a registered scenario compiled onto the sharded kernel and
// driven call by call through its public entry points.
type kernelRun struct {
	scenario string
	scale    scenario.Scale
	// horizon overrides the scale's default simulated duration when > 0.
	horizon float64
	// churn adds constant lifecycle churn to a scenario declared without.
	churn bool
	// ckptEvery takes a delta-chain checkpoint every ckptEvery windows and
	// ends with a crash/resume drill; 0 takes none.
	ckptEvery int
}

// workloads are the benchmark's input sets. market-1m-cold is not declared
// in BENCHMARK.json: its runs spread beyond the largest allowed bound on a
// shared 2-CPU box and cost a third of the driver's time budget, so it is
// run by hand (see README.md).
var workloads = []workload{
	{name: "market-100k-policy", scaling: true, kernel: &kernelRun{
		scenario: "adaptive-tax", scale: scenario.ScaleLarge, horizon: 30, churn: true,
	}},
	{name: "stream-100k-ckpt", kernel: &kernelRun{
		scenario: "taxed-streaming", scale: scenario.ScaleLarge, horizon: 80, ckptEvery: 3,
	}},
	{name: "paper-quick"},
	{name: "market-1m-cold", kernel: &kernelRun{
		scenario: "free-rider-mix", scale: scenario.ScaleXLarge,
	}},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rep is one repetition of a workload inside its own process.
type rep struct {
	seed   int64
	shards int
	// small runs every scenario at ScaleQuick (a few hundred peers), for
	// the benchmark's own tests.
	small bool
	// dir holds this repetition's checkpoint chain.
	dir string
	// launched is how long the process took from launch to main; setup
	// times count from launch.
	launched time.Duration
	start    time.Time
	tr       *tracer
	root     int
	res      repResult
}

// check counts one correctness check and records its failure.
func (r *rep) check(what string, err error) bool {
	r.res.Checks++
	if err != nil {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// sinceLaunch is the time from process launch to now.
func (r *rep) sinceLaunch() time.Duration { return r.launched + time.Since(r.start) }

// layer records a per-layer metric; only traced repetitions report them.
func (r *rep) layer(name string, v float64) {
	if r.tr != nil {
		r.res.Layers[name] = v
	}
}

// run executes one repetition of w.
func (r *rep) run(w workload) {
	r.root = r.tr.begin("rep", -1)
	setup := r.tr.begin("setup", r.root)
	if r.tr != nil {
		r.tr.spans[r.root].Start, r.tr.spans[setup].Start = 0, 0
		r.tr.spans = append(r.tr.spans, span{Name: "process.start", Parent: setup, End: int64(r.launched)})
	}
	if w.kernel != nil {
		r.kernel(*w.kernel, setup)
	} else {
		r.paperQuick(setup)
	}
	r.tr.end(r.root)
}

// scenarioFor returns the workload's scenario at this repetition's scale.
func (r *rep) scenarioFor(k kernelRun) (scenario.Scenario, scenario.Scale, error) {
	sc, err := scenario.Get(k.scenario)
	if err != nil {
		return sc, 0, err
	}
	if k.churn {
		sc.Churn = scenario.Churn{Pattern: scenario.ChurnConstant, ArrivalRate: 0.833, MeanLifespan: 1200}
	}
	if r.small {
		return sc, scenario.ScaleQuick, nil
	}
	sc.LargeHorizon, sc.XLargeHorizon = k.horizon, k.horizon
	return sc, k.scale, nil
}

// config compiles sc onto the kernel. The overlay comes from the
// scenario's registered seed and the repetition's seed drives every
// simulation stream: graph-build time is heavy-tailed in the overlay seed
// (the largest hub's degree), so one fixed overlay per workload keeps runs
// with different seeds comparable and bounded in time.
func (r *rep) config(sc scenario.Scenario, scale scenario.Scale) (shard.Config, error) {
	cfg, err := sc.ShardConfig(scale, r.shards)
	cfg.Seed = r.seed
	return cfg, err
}

// kernel runs a sharded-kernel workload: setup (graph build through
// Start), the window loop with its checkpoints through Finish, and for
// checkpointing workloads the crash/resume drill.
func (r *rep) kernel(k kernelRun, setup int) {
	sc, scale, err := r.scenarioFor(k)
	if !r.check("scenario", err) {
		return
	}
	sp := r.tr.begin("topology.build", setup)
	cfg, err := r.config(sc, scale)
	r.tr.end(sp)
	if !r.check("ShardConfig", err) {
		return
	}
	edges := cfg.Graph.NumEdges()
	// Only a traced repetition keeps the graph past NewSim, for the
	// partition probe; otherwise the engine's partition is the sole copy,
	// as shard.Config documents, and peak RSS measures the engine alone.
	var probe *topology.Graph
	if r.tr != nil {
		probe = cfg.Graph
	}
	sp = r.tr.begin("shard.init", setup)
	sim, err := shard.NewSim(cfg)
	r.tr.end(sp)
	cfg.Graph = nil
	if !r.check("NewSim", err) {
		return
	}
	sp = r.tr.begin("shard.start", setup)
	err = sim.Start()
	r.tr.end(sp)
	r.tr.end(setup)
	r.res.SetupS = r.sinceLaunch().Seconds()
	if !r.check("Start", err) {
		return
	}
	if probe != nil {
		sp = r.tr.begin("topology.partition", r.root)
		_, err = topology.NewPartition(probe, r.shards)
		r.tr.end(sp)
		r.check("NewPartition", err)
	}

	run := r.tr.begin("run", r.root)
	t0 := time.Now()
	var store *snapshot.ChainStore
	var ck *shard.Checkpointer
	if k.ckptEvery > 0 {
		store = &snapshot.ChainStore{Path: filepath.Join(r.dir, "run.snap")}
		ck = shard.NewCheckpointer(sim.Engine(), store, shard.CheckpointOptions{Delta: true})
	}
	ok := r.windows(sim, cfg.Horizon, run, func(w int) bool {
		if ck == nil || w%k.ckptEvery != 0 {
			return true
		}
		sp := r.tr.begin("ckpt.checkpoint", run)
		err := ck.Checkpoint()
		r.tr.end(sp)
		return r.check("Checkpoint", err)
	})
	if ck != nil {
		sp = r.tr.begin("ckpt.close", run)
		err = ck.Close()
		r.tr.end(sp)
		ok = r.check("Checkpointer.Close", err) && ok
	}
	if !ok {
		return
	}
	sp = r.tr.begin("shard.finish", run)
	res, err := sim.Finish()
	r.tr.end(sp)
	r.tr.end(run)
	r.res.RunS = time.Since(t0).Seconds()
	if !r.check("Finish", err) {
		return
	}
	fp := res.Fingerprint()
	r.res.Fingerprint = fmt.Sprintf("%016x", fp)

	if r.tr != nil {
		e := sim.Engine()
		r.kernelLayers(res, e.Timings(), e.RunStats(), edges)
		if ck != nil {
			r.ckptLayers(ck.Stats(), e.Timings())
		}
	}
	if store != nil {
		r.resumeDrill(sc, scale, store, fp)
	}
}

// windows steps sim to horizon one timed StepWindow at a time, calling
// after with the 1-based window count after each; it stops early when
// after reports false.
func (r *rep) windows(sim *shard.Sim, horizon float64, parent int, after func(w int) bool) bool {
	for w := 1; sim.Now() < horizon; w++ {
		sp := r.tr.begin("shard.window", parent)
		more := sim.StepWindow()
		r.tr.end(sp)
		if !more {
			return r.check("StepWindow", fmt.Errorf("stopped at t=%v before horizon %v", sim.Now(), horizon))
		}
		if !after(w) {
			return false
		}
	}
	return true
}

// resumeDrill plays a crash after the run: it regenerates the config,
// loads the stored chain, restores it and runs to the horizon. The resumed
// fingerprint must equal the uninterrupted run's.
func (r *rep) resumeDrill(sc scenario.Scenario, scale scenario.Scale, store *snapshot.ChainStore, want uint64) {
	restore := r.tr.begin("restore", r.root)
	t0 := time.Now()
	sp := r.tr.begin("topology.build", restore)
	cfg, err := r.config(sc, scale)
	r.tr.end(sp)
	if !r.check("resume ShardConfig", err) {
		return
	}
	sp = r.tr.begin("snapshot.load", restore)
	chain, err := store.Load()
	r.tr.end(sp)
	if !r.check("ChainStore.Load", err) {
		return
	}
	sp = r.tr.begin("shard.restore", restore)
	sim, err := shard.RestoreChain(cfg, chain)
	r.tr.end(sp)
	cfg.Graph = nil
	r.tr.end(restore)
	restoreS := time.Since(t0).Seconds()
	if !r.check("RestoreChain", err) {
		return
	}
	resume := r.tr.begin("resume", r.root)
	ok := r.windows(sim, cfg.Horizon, resume, func(int) bool { return true })
	sp = r.tr.begin("shard.finish", resume)
	res, err := sim.Finish()
	r.tr.end(sp)
	r.tr.end(resume)
	if !ok || !r.check("resumed Finish", err) {
		return
	}
	if got := res.Fingerprint(); got != want {
		r.check("resumed fingerprint", fmt.Errorf("%016x, uninterrupted run gave %016x", got, want))
	} else {
		r.check("resumed fingerprint", nil)
	}
	r.layer("restore_s", restoreS)
	if r.tr != nil {
		r.layer("snapshot.load_s", durations(r.tr.spans, "snapshot.load")[0])
		r.layer("shard.restore_s", durations(r.tr.spans, "shard.restore")[0])
	}
}

// paperQuick regenerates every registered paper artifact at the Quick
// preset. The registry fixes the seeds, so the repetition's seed is unused;
// the fingerprint hashes the artifacts' output bytes.
func (r *rep) paperQuick(setup int) {
	exps := creditp2p.Experiments()
	if r.small && len(exps) > 2 {
		exps = exps[:2]
	}
	r.tr.end(setup)
	r.res.SetupS = r.sinceLaunch().Seconds()
	run := r.tr.begin("run", r.root)
	t0 := time.Now()
	h := fnv.New64a()
	for _, e := range exps {
		sp := r.tr.begin("experiments."+e.ID, run)
		err := creditp2p.RunExperiment(e.ID, creditp2p.Quick, h)
		r.tr.end(sp)
		r.check("RunExperiment "+e.ID, err)
	}
	r.tr.end(run)
	r.res.RunS = time.Since(t0).Seconds()
	if len(exps) == 0 {
		r.check("experiments", errors.New("registry is empty"))
	}
	r.res.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
}
