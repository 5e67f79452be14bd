package market

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"creditp2p/internal/credit"
	"creditp2p/internal/snapshot"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// resumeCfg builds one all-mechanisms configuration (taxation, injection,
// churn, snapshots). Fresh per call: the graph mutates under churn and the
// tax policy accumulates counters.
func resumeCfg(t *testing.T) Config {
	t.Helper()
	g, err := topology.RandomRegular(60, 6, xrand.New(511))
	if err != nil {
		t.Fatal(err)
	}
	tax, err := credit.NewTaxPolicy(0.25, 12)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:         g,
		InitialWealth: 20,
		DefaultMu:     1,
		Horizon:       400,
		SampleEvery:   20,
		SnapshotTimes: []float64{100, 300},
		Tax:           tax,
		Inject:        &InjectConfig{Amount: 1, Period: 60},
		Churn:         &ChurnConfig{ArrivalRate: 0.4, MeanLifespan: 150, AttachDegree: 4, FastAttach: true},
		Seed:          512,
	}
}

// countEvents runs a config to completion and returns the delivered-event
// count alongside the Result.
func countEvents(t *testing.T, cfg Config) (int, *Result) {
	t.Helper()
	m, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for m.Step() {
		n++
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return n, res
}

// crashAt runs a fresh sim for `at` events and returns its snapshot.
func crashAt(t *testing.T, cfg Config, at int) []byte {
	t.Helper()
	m, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < at && m.Step(); i++ {
	}
	return m.Snapshot()
}

// TestResumeParityAtArbitraryIndices crashes the all-mechanisms run at a
// sweep of event indices — immediately after Start, mid-run, one event
// before the end — restores each snapshot into a fresh simulation, and
// demands the resumed Result byte-identical to the uninterrupted run's.
// The uninterrupted run itself is pinned to its event count and result
// digest: this run splices events into the calendar's draining day and
// then retunes the wheel, the path that once delivered a stale key.
func TestResumeParityAtArbitraryIndices(t *testing.T) {
	events, want := countEvents(t, resumeCfg(t))
	if events != 23405 {
		t.Errorf("uninterrupted run delivered %d events, want 23405", events)
	}
	if got := resultDigest(want); got != 0xd0175403c5f8ddf5 {
		t.Errorf("uninterrupted run digest %#016x, want 0xd0175403c5f8ddf5", got)
	}
	for _, at := range []int{0, 1, events / 4, events / 2, 3 * events / 4, events - 1} {
		data := crashAt(t, resumeCfg(t), at)
		m, err := RestoreSim(resumeCfg(t), data)
		if err != nil {
			t.Fatalf("restore at event %d: %v", at, err)
		}
		m.Run()
		got, err := m.Finish()
		if err != nil {
			t.Fatalf("finish after restore at event %d: %v", at, err)
		}
		identicalResults(t, want, got)
	}
}

// TestSnapshotIdempotence asserts snapshot → restore → snapshot reproduces
// the exact bytes: restoring must not perturb any serialized state.
func TestSnapshotIdempotence(t *testing.T) {
	events, _ := countEvents(t, resumeCfg(t))
	data := crashAt(t, resumeCfg(t), events/2)
	m, err := RestoreSim(resumeCfg(t), data)
	if err != nil {
		t.Fatal(err)
	}
	again := m.Snapshot()
	if !bytes.Equal(data, again) {
		t.Fatalf("snapshot not idempotent: %d vs %d bytes after restore", len(data), len(again))
	}
}

// TestRestoreRejectsAlteredConfig alters one configuration knob per case
// and demands the digest guard refuse the restore.
func TestRestoreRejectsAlteredConfig(t *testing.T) {
	data := crashAt(t, resumeCfg(t), 100)
	cases := map[string]func(*Config){
		"seed":    func(c *Config) { c.Seed++ },
		"horizon": func(c *Config) { c.Horizon *= 2 },
		"routing": func(c *Config) { c.Routing = RouteDegreeWeighted },
		"wealth":  func(c *Config) { c.InitialWealth++ },
		"no-tax":  func(c *Config) { c.Tax = nil },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := resumeCfg(t)
			mutate(&cfg)
			if _, err := RestoreSim(cfg, data); err == nil {
				t.Fatal("restore into an altered configuration was accepted")
			} else if !strings.Contains(err.Error(), "digest") && !strings.Contains(err.Error(), "external accounts") {
				t.Fatalf("want a digest-guard error, got: %v", err)
			}
		})
	}
}

// reseal rewrites a snapshot's header version and recomputes its checksum
// trailer, so only the layout checks stand between the bytes and the
// parser.
func reseal(data []byte, version uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[8:], version)
	body := out[:len(out)-8]
	binary.LittleEndian.PutUint64(out[len(out)-8:], uint64(crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))))
	return out
}

// TestRestoreRefusesOldFormat pins the version-4 format bump: a version-3
// file, and a version-4 file whose metrics section is corrupt, are refused
// with an error, never misparsed and never a panic. The metrics cases
// carry a checksum-valid trailer, so only the section parsing catches them.
func TestRestoreRefusesOldFormat(t *testing.T) {
	data := crashAt(t, resumeCfg(t), 2000)
	tag := []byte("\x07metrics")
	at := bytes.Index(data, tag)
	if at < 0 {
		t.Fatal("no metrics section in the snapshot")
	}
	at += len(tag)
	next := bytes.Index(data[at:], []byte("\x05graph"))
	if next < 0 {
		t.Fatal("no graph section after the metrics section")
	}
	next += at
	splice := func(off int, insert []byte) []byte {
		out := append([]byte(nil), data[:off]...)
		out = append(out, insert...)
		return reseal(append(out, data[off:]...), snapshot.Version)
	}
	hugeLen := binary.LittleEndian.AppendUint64(nil, 1<<40)
	cases := map[string][]byte{
		"version 3": reseal(data, 3),
		// The version-3 metrics layout: a trailing "sampler present" flag
		// and the Fenwick sampler's section.
		"sampler flag":  splice(next, []byte("\x01\x07incgini")),
		"series length": reseal(append(append(append([]byte(nil), data[:at]...), hugeLen...), data[at+8:]...), snapshot.Version),
		"truncated":     reseal(append(append([]byte(nil), data[:next-4]...), data[next:]...), snapshot.Version),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("restore panicked: %v", r)
				}
			}()
			_, err := RestoreSim(resumeCfg(t), bad)
			if err == nil {
				t.Fatal("corrupt snapshot restored without error")
			}
			t.Log(err)
		})
	}
}
