// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md. Each experiment
// is addressable by id (fig1..fig11, exact-vs-approx, threshold, pricing)
// and prints the same rows/series the paper reports, as aligned tables and
// ASCII charts.
//
// Two presets are provided: Quick runs scaled-down configurations suitable
// for tests and benchmarks (seconds), Full runs paper-scale parameters
// (N=500–1000 peers, horizons up to 40 000 simulated seconds).
package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// ErrUnknown is returned when an experiment id does not exist.
var ErrUnknown = errors.New("experiments: unknown experiment")

// Preset selects the parameter scale.
type Preset int

const (
	// Quick runs a scaled-down configuration with the same shape.
	Quick Preset = iota + 1
	// Full runs the paper-scale configuration.
	Full
	// Large runs a 100k-peer configuration with O(n) asymmetric-mu
	// construction. It exists to exercise production-scale populations;
	// expect tens of seconds per figure point.
	Large
	// XLarge runs a million-peer configuration on the fast-sampling
	// routing mode — the full memory-diet regime. Expect
	// a few GB of RSS and minutes per figure.
	XLarge
)

// String implements fmt.Stringer.
func (p Preset) String() string {
	switch p {
	case Quick:
		return "quick"
	case Full:
		return "full"
	case Large:
		return "large"
	case XLarge:
		return "xlarge"
	default:
		return fmt.Sprintf("preset(%d)", int(p))
	}
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the registry key, e.g. "fig3".
	ID string
	// Title is a one-line description.
	Title string
	// Paper describes what the paper's artifact shows.
	Paper string
	// Run regenerates the artifact, writing tables/charts to w.
	Run func(p Preset, w io.Writer) error
}

// registry is populated by the fig*.go files' register calls.
var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// All returns every experiment sorted by id (figN numerically first).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

func orderKey(id string) string {
	// fig2 sorts before fig10 via zero padding.
	if len(id) >= 4 && id[:3] == "fig" {
		if len(id) == 4 {
			return "fig0" + id[3:]
		}
		return id
	}
	return "z" + id
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("%w: %q", ErrUnknown, id)
	}
	return e, nil
}

// RunAll executes every experiment under the preset.
func RunAll(p Preset, w io.Writer) error {
	for _, e := range All() {
		if _, err := fmt.Fprintf(w, "\n=== %s: %s [%s] ===\n%s\n\n", e.ID, e.Title, p, e.Paper); err != nil {
			return err
		}
		if err := e.Run(p, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}
