package shard_test

import (
	"fmt"
	"reflect"
	"testing"

	"creditp2p/internal/cacheline"
	"creditp2p/internal/shard"
)

// lineSpan is an inclusive range of cache-line indexes one hot record
// covers.
type lineSpan struct {
	what   string
	lo, hi uintptr
}

func spanOf(what string, addr, size uintptr) lineSpan {
	return lineSpan{what, addr / cacheline.Size, (addr + size - 1) / cacheline.Size}
}

// field looks up an unexported field by name, failing loudly on a
// rename so the test cannot silently stop covering a record.
func field(t *testing.T, v reflect.Value, name string) reflect.Value {
	t.Helper()
	f := v.FieldByName(name)
	if !f.IsValid() {
		t.Fatalf("%s has no field %q", v.Type(), name)
	}
	return f
}

// interior returns the lines between a padded struct's opening and
// closing cacheline.Pad fields — the part that must not share a line.
func interior(t *testing.T, what string, v reflect.Value) lineSpan {
	t.Helper()
	typ := v.Type()
	pad := reflect.TypeOf(cacheline.Pad{})
	first, last := typ.Field(0), typ.Field(typ.NumField()-1)
	if first.Type != pad || last.Type != pad {
		t.Fatalf("%s (%s) does not open and close with a cacheline.Pad", what, typ)
	}
	base := v.UnsafeAddr()
	return spanOf(what, base+first.Type.Size(), last.Offset-first.Type.Size())
}

// words returns the lines a slice's elements cover.
func words(what string, v reflect.Value) lineSpan {
	return spanOf(what, v.Pointer(), uintptr(v.Len())*v.Type().Elem().Size())
}

// laneSpans collects the records lane ln writes on every event: the lane
// itself, its dirty words, histogram and outbox headers, its scheduler
// (cursors, dirty words, calendar queue) and its workload counters.
func laneSpans(t *testing.T, ln *shard.Lane, counters reflect.Value) []lineSpan {
	t.Helper()
	lv := reflect.ValueOf(ln).Elem()
	sv := field(t, lv, "sched").Elem()
	spans := []lineSpan{
		interior(t, "Lane", lv),
		words("Lane.dirty", field(t, field(t, lv, "dirty"), "words")),
		words("Lane.hist", field(t, lv, "hist")),
		words("Lane.out", field(t, lv, "out")),
		interior(t, "Scheduler", sv),
		words("Scheduler.dirty", field(t, field(t, sv, "dirty"), "words")),
		interior(t, "workload counters", counters.Index(ln.S)),
	}
	return spans
}

// TestLaneHotLinesDisjoint pins the false-sharing fix: no cache line
// holds hot per-lane state of two different lanes, at P ∈ {2, 4, 8}, on
// both sharded workloads.
func TestLaneHotLinesDisjoint(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		for _, wl := range []string{"market", "streaming"} {
			cfg := marketConfig(t, p, nil)
			if wl == "streaming" {
				cfg = streamingConfig(t, p, nil)
			}
			e, err := shard.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			e.StepWindow()
			counters := field(t, reflect.ValueOf(cfg.Workload).Elem(), "lanes")
			var lanes [][]lineSpan
			for _, ln := range e.Lanes() {
				lanes = append(lanes, laneSpans(t, ln, counters))
			}
			label := fmt.Sprintf("P=%d %s", p, wl)
			for i := range lanes {
				for j := i + 1; j < len(lanes); j++ {
					for _, a := range lanes[i] {
						for _, b := range lanes[j] {
							if a.lo <= b.hi && b.lo <= a.hi {
								t.Errorf("%s: lane %d %s (lines %d-%d) shares a cache line with lane %d %s (lines %d-%d)",
									label, i, a.what, a.lo, a.hi, j, b.what, b.lo, b.hi)
							}
						}
					}
				}
			}
		}
	}
}
