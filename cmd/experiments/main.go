// Command experiments regenerates the paper's tables and figures and runs
// the declarative scenario presets.
//
// Usage:
//
//	experiments -list
//	experiments -id fig7 [-preset full]
//	experiments -all [-preset quick]
//	experiments -id fig7 -preset large -cpuprofile cpu.pprof
//	experiments -scenarios
//	experiments -scenario flash-crowd [-preset large]
//	experiments -scenario flash-crowd -checkpoint-every 50000 -checkpoint run.snap
//	experiments -scenario flash-crowd -restore run.snap
//	experiments -scenario flash-crowd -preset large -shards 8
//	experiments -scenario flash-crowd -preset large -shards 8 -timing
//	experiments -scenario flash-crowd -shards 4 -checkpoint-every 50000 -checkpoint run.snap
//	experiments -scenario flash-crowd -shards 4 -restore run.snap
//	experiments -scenario flash-crowd -shards 4 -checkpoint-every 50000 -checkpoint run.snap -checkpoint-delta
//	experiments -scenario flash-crowd -shards 4 -restore run.snap -checkpoint-delta
//	experiments -scenario free-rider-mix -shards 8 -routing availability
//	experiments -scenario free-rider-mix -shards 8 -routing degree -checkpoint-every 50000 -checkpoint run.snap -checkpoint-delta
//	experiments -id policy-sweep
//	experiments -taxrates 0.05,0.1,0.2 [-preset full]
//
// Quick (default) runs scaled-down configurations in seconds; full runs
// paper-scale parameters (N up to 1000 peers, 40 000 simulated seconds) and
// can take minutes per figure; large runs 100k-peer populations.
// Scenarios (flash-crowd, free-rider-mix, diurnal-churn, seeder-drain, ...)
// compile a declared regime into a simulator configuration at the chosen
// preset scale and print a summary report.
//
// -cpuprofile and -memprofile write pprof profiles covering the experiment
// runs, so performance PRs can attach before/after evidence gathered
// through the exact cmd path users run.
//
// -checkpoint-every N snapshots a -scenario run's full state to the
// -checkpoint file every N events; -restore resumes a crashed run from such
// a file and produces byte-identical output to the uninterrupted run. Both
// compose with -shards (sharded snapshots land at the first window barrier
// after each cadence mark). All snapshot files are written
// write-to-temp / fsync / rename / fsync-directory, so a crash or power
// cut mid-checkpoint always leaves a complete snapshot behind.
//
// -checkpoint-delta (sharded runs only) switches checkpointing to
// base+delta chains: full snapshots anchor the chain, and between them
// only the dirty segments of the run's state are written (run.snap plus
// run.snap.d001, run.snap.d002, ...), with the seal and file I/O
// overlapped with the simulation. -rebase-every bounds the chain length.
// -restore with -checkpoint-delta loads and validates the whole chain;
// the resumed run is byte-identical either way.
//
// -timing prints the sharded kernel's phase-level barrier-pipeline
// breakdown (dispatch / merge / apply / churn / publish) after the report.
//
// -routing (sharded runs only) overrides the preset's destination-sampling
// mode: uniform picks neighbors uniformly, degree weights by static
// degree, availability weights by a churn-tracking EWMA of uptime. All
// three compose with -shards, -checkpoint-delta and -restore, and each
// mode's output is byte-identical for every shard count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"creditp2p"
	"creditp2p/internal/market"
	"creditp2p/internal/scenario"
	"creditp2p/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	list := fs.Bool("list", false, "list available experiments")
	id := fs.String("id", "", "experiment id to run (fig1..fig11, exact-vs-approx, threshold, pricing)")
	all := fs.Bool("all", false, "run every experiment")
	scenarios := fs.Bool("scenarios", false, "list available scenario presets")
	scenarioName := fs.String("scenario", "", "scenario preset to run (see -scenarios)")
	taxRates := fs.String("taxrates", "", "comma-separated tax-rate grid for the policy-sweep experiment (e.g. 0.05,0.1,0.2)")
	presetName := fs.String("preset", "quick", "quick, full, large or xlarge")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file after the run")
	checkpointEvery := fs.Int("checkpoint-every", 0, "with -scenario: snapshot the run every N events to the -checkpoint file")
	checkpointPath := fs.String("checkpoint", "checkpoint.snap", "with -scenario: the snapshot file written by -checkpoint-every")
	restorePath := fs.String("restore", "", "with -scenario: resume from this snapshot file instead of starting fresh")
	shards := fs.Int("shards", 1, "with -scenario: run on the sharded multi-core kernel with this many lanes (1 = the classic single-threaded engines)")
	timing := fs.Bool("timing", false, "with -scenario -shards > 1: print the phase-level barrier-pipeline timing breakdown after the report")
	checkpointDelta := fs.Bool("checkpoint-delta", false, "with -scenario -shards > 1: write base+delta checkpoint chains with overlapped I/O instead of synchronous full snapshots")
	rebaseEvery := fs.Int("rebase-every", 0, "with -checkpoint-delta: deltas per base before the chain re-anchors (0 = default)")
	routing := fs.String("routing", "", "with -scenario -shards > 1: override the preset's destination-sampling mode (uniform, degree or availability)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	preset := creditp2p.Quick
	switch *presetName {
	case "quick":
	case "full":
		preset = creditp2p.Full
	case "large":
		preset = creditp2p.Large
	case "xlarge":
		preset = creditp2p.XLarge
	default:
		return fmt.Errorf("unknown preset %q (want quick, full, large or xlarge)", *presetName)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
			f.Close()
		}()
	}

	switch {
	case *list:
		for _, e := range creditp2p.Experiments() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return nil
	case *scenarios:
		for _, sc := range creditp2p.Scenarios() {
			fmt.Printf("%-16s %s\n", sc.Name, sc.Summary)
		}
		return nil
	case *taxRates != "":
		rates, err := parseRates(*taxRates)
		if err != nil {
			return err
		}
		return creditp2p.RunPolicySweep(rates, preset, os.Stdout)
	case *scenarioName != "":
		if *shards < 1 {
			return fmt.Errorf("-shards %d: want a positive lane count", *shards)
		}
		if *timing && *shards <= 1 {
			return fmt.Errorf("-timing needs -shards > 1 (the single-threaded engines have no barrier pipeline)")
		}
		if *checkpointDelta && *shards <= 1 {
			return fmt.Errorf("-checkpoint-delta needs -shards > 1 (delta chains are a sharded-kernel feature)")
		}
		if *routing != "" && *shards <= 1 {
			return fmt.Errorf("-routing needs -shards > 1 (the single-threaded engines take routing from the preset)")
		}
		if *shards > 1 {
			return runScenarioSharded(*scenarioName, *presetName, *shards,
				*checkpointEvery, *checkpointPath, *restorePath, *timing,
				*checkpointDelta, *rebaseEvery, *routing)
		}
		if *checkpointEvery > 0 || *restorePath != "" {
			return runScenarioResumable(*scenarioName, *presetName, *checkpointEvery, *checkpointPath, *restorePath)
		}
		_, err := creditp2p.RunScenario(*scenarioName, preset, os.Stdout)
		return err
	case *all:
		return creditp2p.RunAllExperiments(preset, os.Stdout)
	case *id != "":
		return creditp2p.RunExperiment(*id, preset, os.Stdout)
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -list, -id, -all, -scenarios, -scenario or -taxrates")
	}
}

// runScenarioSharded runs a scenario on the sharded multi-core kernel,
// optionally with checkpoint/restore and the phase-timing breakdown. The
// report gains "shards" and "routing" rows; results are byte-identical
// across shard counts by the sharded kernel's invariance contract.
func runScenarioSharded(name, presetName string, shards, every int, ckPath, restorePath string, timing, delta bool, rebaseEvery int, routing string) error {
	scale, err := parseScale(presetName)
	if err != nil {
		return err
	}
	sc, err := scenario.Get(name)
	if err != nil {
		return err
	}
	switch routing {
	case "":
	case "uniform":
		sc.Market.Routing = market.RouteUniform
	case "degree":
		sc.Market.Routing = market.RouteDegreeWeighted
	case "availability":
		sc.Market.Routing = market.RouteAvailability
	default:
		return fmt.Errorf("unknown -routing %q (want uniform, degree or availability)", routing)
	}
	var rs scenario.Resume
	if delta {
		rs, err = resumeChainSpec(every, ckPath, restorePath, rebaseEvery)
	} else {
		rs, err = resumeSpec(every, ckPath, restorePath)
	}
	if err != nil {
		return err
	}
	out, err := scenario.RunShardedResumable(sc, scale, shards, rs)
	if err != nil {
		return err
	}
	if err := out.Report(os.Stdout); err != nil {
		return err
	}
	if timing && out.Timings != nil {
		if _, err := fmt.Fprintln(os.Stdout); err != nil {
			return err
		}
		return out.Timings.Write(os.Stdout)
	}
	return nil
}

// resumeSpec assembles the scenario Resume wiring from the checkpoint
// flags: an atomic file sink for the cadence, and the restore snapshot's
// bytes when resuming.
func resumeSpec(every int, ckPath, restorePath string) (scenario.Resume, error) {
	rs := scenario.Resume{}
	if every > 0 {
		rs.CheckpointEvery = every
		rs.Sink = atomicSink(ckPath)
	}
	if restorePath != "" {
		data, err := os.ReadFile(restorePath)
		if err != nil {
			return rs, fmt.Errorf("restore: %w", err)
		}
		rs.Snapshot = data
	}
	return rs, nil
}

// atomicSink writes each snapshot via snapshot.WriteFileAtomic
// (write-to-temp, fsync, rename, fsync-directory), so a crash or power
// cut mid-checkpoint leaves the previous snapshot intact instead of a
// torn file — and the rename itself is durable.
func atomicSink(ckPath string) func([]byte) error {
	return func(data []byte) error {
		return snapshot.WriteFileAtomic(ckPath, data)
	}
}

// resumeChainSpec assembles the delta-chain Resume wiring: a ChainStore
// sink rooted at ckPath for the cadence, and the stored chain's links
// (validated end to end) when resuming.
func resumeChainSpec(every int, ckPath, restorePath string, rebaseEvery int) (scenario.Resume, error) {
	rs := scenario.Resume{Delta: true, RebaseEvery: rebaseEvery}
	if every > 0 {
		rs.CheckpointEvery = every
		rs.ChainSink = &snapshot.ChainStore{Path: ckPath}
	}
	if restorePath != "" {
		st := snapshot.ChainStore{Path: restorePath}
		chain, err := st.Load()
		if err != nil {
			return rs, fmt.Errorf("restore: %w", err)
		}
		rs.Chain = chain
	}
	return rs, nil
}

// parseScale maps the -preset flag to a scenario scale.
func parseScale(presetName string) (scenario.Scale, error) {
	switch presetName {
	case "quick":
		return scenario.ScaleQuick, nil
	case "full":
		return scenario.ScaleFull, nil
	case "large":
		return scenario.ScaleLarge, nil
	case "xlarge":
		return scenario.ScaleXLarge, nil
	default:
		return 0, fmt.Errorf("unknown preset %q (want quick, full, large or xlarge)", presetName)
	}
}

// runScenarioResumable runs a scenario with checkpoint/restore: periodic
// snapshots land in ckPath, and a non-empty restorePath resumes from its
// contents. The completed run's report is byte-identical to the
// uninterrupted run's.
func runScenarioResumable(name, presetName string, every int, ckPath, restorePath string) error {
	scale, err := parseScale(presetName)
	if err != nil {
		return err
	}
	sc, err := scenario.Get(name)
	if err != nil {
		return err
	}
	rs, err := resumeSpec(every, ckPath, restorePath)
	if err != nil {
		return err
	}
	out, err := scenario.RunResumable(sc, scale, rs)
	if err != nil {
		return err
	}
	return out.Report(os.Stdout)
}

// parseRates parses the -taxrates grid.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("taxrates: %w", err)
		}
		rates = append(rates, r)
	}
	return rates, nil
}
