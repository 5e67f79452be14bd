package main

import (
	"runtime/metrics"
	"strings"
	"time"
)

// span is one timed call into a layer: its name, the span that caused it
// (-1 for the root) and its start and end in nanoseconds since the
// process was launched.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds a repetition's spans in memory; they leave the process once,
// with its result. A nil tracer records nothing, which is the untraced mode
// the end-to-end metrics are measured in.
type tracer struct {
	// origin is when main started, launched how long after the driver
	// launched the process; span times count from the launch.
	origin   time.Time
	launched time.Duration
	spans    []span
	// heapPeak is the largest heap-object byte count seen at a span end.
	heapPeak uint64
	sample   []metrics.Sample
}

func newTracer(origin time.Time, launched time.Duration) *tracer {
	return &tracer{
		origin:   origin,
		launched: launched,
		spans:    make([]span, 0, 512),
		sample:   []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

// end closes span id and samples the heap.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	metrics.Read(t.sample)
	if v := t.sample[0].Value.Uint64(); v > t.heapPeak {
		t.heapPeak = v
	}
}

func (t *tracer) now() int64 { return int64(t.launched + time.Since(t.origin)) }

// selfTimes sums, per layer, each span's duration minus the part its child
// spans cover. A dotted span name's layer is its prefix ("shard.window" is
// in layer "shard"); an undotted name is a grouping span of the benchmark
// itself ("setup", "run") and is its own layer.
func selfTimes(spans []span) map[string]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// durations returns the durations in seconds of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}
