package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"creditp2p"
	"creditp2p/internal/snapshot"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// driver re-executes itself with childArg for every repetition.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// runRep runs one small repetition of w in this process.
func runRep(t *testing.T, w workload, seed int64, shards int) *rep {
	t.Helper()
	r := &rep{seed: seed, shards: shards, small: true, dir: t.TempDir(), start: time.Now()}
	r.run(w)
	if len(r.res.Failures) > 0 {
		t.Fatalf("%s seed %d P=%d: %v", w.name, seed, shards, r.res.Failures)
	}
	return r
}

// TestWorkloadsSmall drives every workload end to end, in child processes,
// at ScaleQuick: untraced repetitions, the traced one and (where the
// workload has it) the P=1 one, with every check passing.
func TestWorkloadsSmall(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			d := &driver{ctx: ctx, exe: exe, workdir: t.TempDir(), w: w, seed: 5, small: true}
			o, err := d.run(0, true)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%d of %d checks failed: %v", o.failed, o.attempted, o.failures)
			}
			for _, m := range perLayer {
				if v := o.metrics[m.name]; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", m.name, v)
				}
			}
			if w.kernel != nil && o.metrics["des.events"] == 0 {
				t.Error("kernel workload reported no events")
			}
			if w.scaling && o.metrics["shard.scaling_p2"] <= 0 {
				t.Error("no P=1 repetition on a scaling workload")
			}
		})
	}
}

// TestShardCountInvariance checks that every kernel workload gives the
// same fingerprint at P=1 and P=2.
func TestShardCountInvariance(t *testing.T) {
	for _, w := range workloads {
		if w.kernel == nil {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			p1 := runRep(t, w, 9, 1).res.Fingerprint
			p2 := runRep(t, w, 9, 2).res.Fingerprint
			if p1 == "" || p1 != p2 {
				t.Fatalf("P=1 fingerprint %q, P=2 %q", p1, p2)
			}
		})
	}
}

// TestFingerprintMismatchFails forces a mismatch (two seeds of one
// workload) through the driver's cross-repetition check.
func TestFingerprintMismatchFails(t *testing.T) {
	w, err := workloadByName("market-100k-policy")
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := runRep(t, w, 1, 2), runRep(t, w, 2, 2), runRep(t, w, 1, 2)
	o := &outcome{}
	o.sameFingerprint("same seed", c.res, a.res)
	if o.failed != 0 {
		t.Fatalf("same seed counted as a failure: %v", o.failures)
	}
	o.sameFingerprint("other seed", b.res, a.res)
	if o.attempted != 2 || o.failed != 1 {
		t.Fatalf("mismatch gave %d failed of %d attempted, want 1 of 2", o.failed, o.attempted)
	}
}

// TestCorruptChainFails flips one bit in the last stored chain link and
// checks that the resume drill counts a failure instead of resuming.
func TestCorruptChainFails(t *testing.T) {
	w, err := workloadByName("stream-100k-ckpt")
	if err != nil {
		t.Fatal(err)
	}
	r := runRep(t, w, 4, 2)
	store := &snapshot.ChainStore{Path: filepath.Join(r.dir, "run.snap")}
	links, err := filepath.Glob(store.Path + "*")
	if err != nil || len(links) < 2 {
		t.Fatalf("want a base and at least one delta stored, got %v (%v)", links, err)
	}
	link := links[len(links)-1] // names sort base first, then d001, d002, ...
	data, err := os.ReadFile(link)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(link, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fp, err := strconv.ParseUint(r.res.Fingerprint, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	again := &rep{seed: r.seed, shards: 2, small: true, dir: r.dir, start: time.Now()}
	sc, scale, err := again.scenarioFor(*w.kernel)
	if err != nil {
		t.Fatal(err)
	}
	again.resumeDrill(sc, scale, store, fp)
	if len(again.res.Failures) != 1 || !strings.Contains(again.res.Failures[0], "ChainStore.Load") {
		t.Fatalf("corrupt link gave failures %v, want one from ChainStore.Load", again.res.Failures)
	}
}

// TestReportMatchesBenchmarkJSON checks that every metric and workload the
// benchmark prints is declared, with the same unit, in BENCHMARK.json, and
// that the last line of a report is the result object.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(section string, printed []metric, declared []def) {
		if len(printed) != len(declared) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", section, len(printed), len(declared))
		}
		units := map[string]string{}
		for _, d := range declared {
			units[d.Name] = d.Unit
		}
		for _, m := range printed {
			if u, ok := units[m.name]; !ok || u != m.unit {
				t.Errorf("%s: %s (%s) is not declared with that unit", section, m.name, m.unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json declares %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, d := range spec.Workloads {
		if _, err := workloadByName(d.Name); err != nil {
			t.Error(err)
		}
	}

	o := &outcome{metrics: map[string]float64{"wall_s": 1.5}}
	o.check("forced", os.ErrNotExist)
	var buf bytes.Buffer
	if err := o.report(&buf, endToEnd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 1 || res.Failed != 1 || len(res.Metrics) != len(endToEnd) ||
		res.Metrics["wall_s"].Value != 1.5 || res.Metrics["wall_s"].Unit != "s" {
		t.Fatalf("result object %+v", res)
	}
}

// TestExperimentMetricsCoverRegistry checks that there is one
// experiments.<id>_s metric per registered experiment.
func TestExperimentMetricsCoverRegistry(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range perLayer {
		if id, ok := strings.CutPrefix(m.name, "experiments."); ok {
			declared[strings.TrimSuffix(id, "_s")] = true
		}
	}
	exps := creditp2p.Experiments()
	if len(exps) != len(declared) {
		t.Errorf("%d experiments registered, %d metrics declared", len(exps), len(declared))
	}
	for _, e := range exps {
		if !declared[e.ID] {
			t.Errorf("no metric for experiment %s", e.ID)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "rep", Parent: -1, Start: 0, End: 100},
		{Name: "setup", Parent: 0, Start: 0, End: 40},
		{Name: "topology.build", Parent: 1, Start: 5, End: 30},
		{Name: "shard.init", Parent: 1, Start: 30, End: 38},
		{Name: "run", Parent: 0, Start: 40, End: 100},
		{Name: "shard.window", Parent: 4, Start: 40, End: 99},
	}
	got := selfTimes(spans)
	want := map[string]float64{"rep": 0, "setup": 7, "topology": 25, "shard": 67, "run": 1}
	for k, v := range want {
		if math.Abs(got[k]-v/1e9) > 1e-15 {
			t.Errorf("self %s = %v, want %v", k, got[k], v/1e9)
		}
	}
}
