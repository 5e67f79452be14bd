package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// budget bounds a whole benchmark run, every repetition process included;
// a repetition still running at the deadline is killed and the run fails.
const budget = 170 * time.Second

// driver launches a workload's repetitions, each in a fresh process.
type driver struct {
	ctx     context.Context
	exe     string
	workdir string
	w       workload
	seed    int64
	small   bool
}

// outcome is a benchmark run's checks and figures.
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
	// spans are the traced repetition's, written out once at the end.
	spans []span
}

// check counts one correctness check of the run and records its failure.
func (o *outcome) check(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// absorb counts a repetition's own checks.
func (o *outcome) absorb(res repResult) {
	o.attempted += res.Checks
	o.failed += len(res.Failures)
	o.failures = append(o.failures, res.Failures...)
}

// sameFingerprint checks that a repetition reproduced the reference
// fingerprint.
func (o *outcome) sameFingerprint(what string, got, want repResult) {
	var err error
	if got.Fingerprint != want.Fingerprint {
		err = fmt.Errorf("fingerprint %s, first repetition gave %s", got.Fingerprint, want.Fingerprint)
	}
	o.check(what, err)
}

// spawn runs one repetition in a fresh process and returns its result and
// the wall time from launch to exit.
func (d *driver) spawn(shards int, traced bool) (repResult, time.Duration, error) {
	dir, err := os.MkdirTemp(d.workdir, "rep-")
	if err != nil {
		return repResult{}, 0, err
	}
	defer os.RemoveAll(dir)
	cmd := exec.CommandContext(d.ctx, d.exe, childArg,
		"-workload", d.w.name,
		"-seed", strconv.FormatInt(d.seed, 10),
		"-shards", strconv.Itoa(shards),
		"-dir", dir,
		"-trace="+strconv.FormatBool(traced),
		"-small="+strconv.FormatBool(d.small))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	launch := time.Now()
	cmd.Args = append(cmd.Args, "-launch", strconv.FormatInt(launch.UnixNano(), 10))
	err = cmd.Run()
	wall := time.Since(launch)
	if err != nil {
		return repResult{}, wall, fmt.Errorf("repetition process: %w", err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return repResult{}, wall, fmt.Errorf("repetition output: %w", err)
	}
	return res, wall, nil
}

// minReps is the fewest repetitions a run makes, so that every
// end-to-end figure, set-up included, is a median of several.
const minReps = 2

// run starts repetitions while the next one, as long as the longest so
// far, would end within seconds (always at least minReps), then reports
// their medians; a traced run adds one traced repetition (and a P=1 one
// for scaling workloads) and reports the per-layer figures.
func (d *driver) run(seconds time.Duration, traced bool) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	var reps []repResult
	var walls, setups, runs, rss []float64
	var longest time.Duration
	start := time.Now()
	for n := 0; n < minReps || time.Since(start)+longest <= seconds; n++ {
		res, wall, err := d.spawn(2, false)
		longest = max(longest, wall)
		if d.ctx.Err() != nil {
			return nil, fmt.Errorf("out of time after %d repetitions: %w", n, d.ctx.Err())
		}
		if err != nil {
			o.check("repetition", err)
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d repetition %d: wall %.3fs setup %.3fs run %.3fs rss %.1fMB fingerprint %s\n",
			d.w.name, d.seed, n+1, wall.Seconds(), res.SetupS, res.RunS, res.PeakRSSMB, res.Fingerprint)
		o.absorb(res)
		if len(reps) > 0 {
			o.sameFingerprint(fmt.Sprintf("repetition %d", len(reps)+1), res, reps[0])
		}
		reps = append(reps, res)
		walls = append(walls, wall.Seconds())
		setups = append(setups, res.SetupS)
		runs = append(runs, res.RunS)
		rss = append(rss, res.PeakRSSMB)
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("no repetition succeeded: %v", o.failures)
	}
	if !traced {
		o.metrics["wall_s"] = quantile(walls, 0.5)
		o.metrics["setup_s"] = quantile(setups, 0.5)
		o.metrics["run_s"] = quantile(runs, 0.5)
		o.metrics["peak_rss_mb"] = quantile(rss, 0.5)
		return o, nil
	}

	tr, wall, err := d.spawn(2, true)
	if err != nil {
		return nil, fmt.Errorf("traced repetition: %w", err)
	}
	o.absorb(tr)
	o.sameFingerprint("traced repetition", tr, reps[0])
	for _, m := range perLayer {
		o.metrics[m.name] = tr.Layers[m.name]
	}
	o.metrics["trace.overhead_s"] = wall.Seconds() - quantile(walls, 0.5)
	o.spans = tr.Spans
	if d.w.scaling {
		p1, _, err := d.spawn(1, false)
		if err != nil {
			return nil, fmt.Errorf("P=1 repetition: %w", err)
		}
		o.absorb(p1)
		o.sameFingerprint("P=1 repetition", p1, reps[0])
		o.metrics["shard.scaling_p2"] = p1.RunS / quantile(runs, 0.5)
	}
	o.metrics["fail_frac"] = float64(o.failed) / float64(o.attempted)
	return o, nil
}

// report prints every metric by name and unit, then the result object as
// the last line.
func (o *outcome) report(w io.Writer, defs []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, m := range defs {
		v := o.metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.check(m.name, fmt.Errorf("not a finite number"))
			v = 0
		}
		ms[m.name] = value{v, m.unit}
		if _, err := fmt.Fprintf(w, "%-32s %16.6g %s\n", m.name, v, m.unit); err != nil {
			return err
		}
	}
	for _, f := range o.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	return json.NewEncoder(w).Encode(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, ms})
}

// writeTrace writes the traced repetition's spans to dir, once.
func writeTrace(dir, name string, seed int64, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{name, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", name, seed)), data, 0o644)
}

// driverMain runs one benchmark run and prints its result.
func driverMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: market-100k-policy, stream-100k-ckpt, paper-quick or market-1m-cold")
	seed := fs.Int64("seed", 1, "workload seed (paper-quick's seeds are fixed by the experiment registry)")
	seconds := fs.Int("seconds", 40, "measure for this many seconds: start repetitions while they fit")
	trace := fs.Int("trace", 0, "1 adds a traced repetition and prints the per-layer metrics instead")
	workdir := fs.String("workdir", ".bench_build", "directory for checkpoint files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w, err := workloadByName(*name)
	if err != nil {
		return fail(err)
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace %d, want 0 or 1", *trace))
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	d := &driver{ctx: ctx, exe: exe, workdir: *workdir, w: w, seed: *seed}
	o, err := d.run(time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		return fail(err)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		if err := writeTrace(*workdir, w.name, *seed, o.spans); err != nil {
			return fail(err)
		}
	}
	if err := o.report(os.Stdout, defs); err != nil {
		return fail(err)
	}
	return 0
}
