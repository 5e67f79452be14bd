package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"creditp2p/internal/shard"
)

// childArg is the first argument that makes the binary run one
// repetition instead of driving a benchmark run.
const childArg = "child"

// repResult is what one repetition's process reports to the driver, as one
// JSON line on its standard output.
type repResult struct {
	Fingerprint string   `json:"fingerprint"`
	Checks      int      `json:"checks"`
	Failures    []string `json:"failures,omitempty"`
	// SetupS runs from process launch until the first unit of work can
	// start: for kernel workloads through Start returning.
	SetupS float64 `json:"setup_s"`
	// RunS is the window loop through Finish, or the 16 experiments.
	RunS      float64 `json:"run_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Layers and Spans are filled by traced repetitions only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// childMain runs one repetition and prints its result.
func childMain(args []string) int {
	start := time.Now()
	fs := flag.NewFlagSet(childArg, flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	shards := fs.Int("shards", 2, "kernel lane count P")
	traced := fs.Bool("trace", false, "record spans and per-layer metrics")
	small := fs.Bool("small", false, "run at ScaleQuick")
	dir := fs.String("dir", "", "directory for checkpoint files")
	launch := fs.Int64("launch", 0, "Unix nanoseconds at which the driver launched this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	r := &rep{seed: *seed, shards: *shards, small: *small, dir: *dir, start: start}
	if *launch > 0 {
		r.launched = start.Sub(time.Unix(0, *launch))
	}
	if *traced {
		r.tr = newTracer(start, r.launched)
		r.res.Layers = map[string]float64{}
	}
	r.run(w)
	r.finish()
	if err := json.NewEncoder(os.Stdout).Encode(&r.res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// finish records the process-wide figures: peak RSS always, and for a
// traced repetition the runtime's GC and heap figures and the spans.
func (r *rep) finish() {
	rss, err := vmHWM()
	if r.check("VmHWM", err) {
		r.res.PeakRSSMB = rss
	}
	if r.tr == nil {
		return
	}
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.layer("runtime.gc_cycles", float64(s[0].Value.Uint64()))
	r.layer("runtime.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
	r.layer("runtime.heap_peak_mb", float64(r.tr.heapPeak)/(1<<20))
	for layer, v := range selfTimes(r.tr.spans) {
		r.layer("self."+layer+"_s", v)
	}
	for _, sp := range r.tr.spans {
		if id, ok := strings.CutPrefix(sp.Name, "experiments."); ok {
			r.layer("experiments."+id+"_s", float64(sp.End-sp.Start)/1e9)
		}
	}
	r.res.Spans = r.tr.spans
}

// vmHWM reads the process's peak resident set size in MiB.
func vmHWM() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// kernelLayers records the per-layer figures of a finished kernel run.
func (r *rep) kernelLayers(res *shard.Result, t shard.Timings, st shard.Stats, edges int) {
	sp := r.tr.spans
	sum := func(name string) float64 {
		s := 0.0
		for _, d := range durations(sp, name) {
			s += d
		}
		return s
	}
	build := sum("topology.build")
	r.layer("topology.build_s", build)
	r.layer("topology.build_ns_per_edge", build*1e9/float64(edges))
	r.layer("topology.partition_s", sum("topology.partition"))
	r.layer("topology.edges", float64(edges))
	r.layer("topology.cross_fraction", st.CrossFraction)
	r.layer("shard.init_s", sum("shard.init"))
	r.layer("shard.start_s", sum("shard.start"))
	r.layer("shard.finish_s", durations(sp, "shard.finish")[0])
	// The resume drill's windows are a run of their own; only the
	// uninterrupted run's windows (the run span's children) count here.
	var win []float64
	for _, s := range sp {
		if s.Name == "shard.window" && sp[s.Parent].Name == "run" {
			win = append(win, float64(s.End-s.Start)/1e9)
		}
	}
	stepped := 0.0
	for _, d := range win {
		stepped += d
	}
	r.layer("shard.window_ms_p50", 1e3*quantile(win, 0.50))
	r.layer("shard.window_ms_p90", 1e3*quantile(win, 0.90))
	r.layer("shard.dispatch_s", t.Dispatch.Seconds())
	r.layer("shard.dispatch_ns_per_event", float64(t.Dispatch.Nanoseconds())/float64(res.Events))
	r.layer("shard.merge_s", t.Merge.Seconds())
	r.layer("shard.apply_s", t.Apply.Seconds())
	r.layer("shard.churn_s", t.Churn.Seconds())
	r.layer("shard.publish_s", t.Publish.Seconds())
	r.layer("shard.barrier_other_s", stepped-t.Total().Seconds())
	r.layer("shard.windows", float64(t.Windows))
	r.layer("shard.merged_events", float64(t.MergedEvents))
	r.layer("des.events", float64(res.Events))
	r.layer("events_per_s", float64(res.Events)/r.res.RunS)
	ratio := func(num, den string) float64 {
		if res.Counters[den] == 0 {
			return 0
		}
		return float64(res.Counters[num]) / float64(res.Counters[den])
	}
	r.layer("market.purchase_ratio", ratio("purchases", "attempts"))
	r.layer("streaming.trade_ratio", ratio("chunks_traded", "chunk_requests"))
}

// ckptLayers records the checkpoint layer's counts and times.
func (r *rep) ckptLayers(cs shard.CheckpointStats, t shard.Timings) {
	r.layer("ckpt.count", float64(cs.Checkpoints))
	r.layer("ckpt.bases", float64(cs.Bases))
	r.layer("ckpt.deltas", float64(cs.Deltas))
	if cs.Bases > 0 && cs.Deltas > 0 {
		r.layer("ckpt.delta_ratio", (float64(cs.DeltaBytes)/float64(cs.Deltas))/(float64(cs.BaseBytes)/float64(cs.Bases)))
	}
	r.layer("ckpt.wait_s", t.CkptWait.Seconds())
	r.layer("ckpt.copy_s", t.CkptCopy.Seconds())
	r.layer("ckpt.encode_s", t.CkptEncode.Seconds())
	r.layer("ckpt.write_s", t.CkptWrite.Seconds())
	stalls := durations(r.tr.spans, "ckpt.checkpoint")
	r.layer("ckpt_stall_ms_p50", 1e3*quantile(stalls, 0.50))
	r.layer("ckpt_stall_ms_p75", 1e3*quantile(stalls, 0.75))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
