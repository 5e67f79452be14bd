package sim

import (
	"fmt"

	"creditp2p/internal/trace"
)

// Snapshot is a full sorted wealth distribution at one instant.
type Snapshot struct {
	Time   float64
	Sorted []float64
}

// Metrics is the kernel's measurement pipeline: the periodic wealth-Gini /
// population / supply series, requested wealth snapshots, and the
// live-balance histogram that mirrors every live-peer balance change so a
// Gini sample is one walk over the balance domain (stats.GiniHist) instead
// of a re-sort.
type Metrics struct {
	// Gini is the wealth-Gini time series.
	Gini *trace.Series
	// Population is the live-peer-count time series.
	Population *trace.Series
	// Supply is the money-supply time series.
	Supply *trace.Series
	// Snapshots are the recorded sorted wealth distributions.
	Snapshots []Snapshot

	// hist counts live peers by balance: hist[v] peers hold v credits.
	// It grows on demand and is derived from the ledger at restore, so it
	// is never serialized. n and total are its population and credits.
	hist  []int64
	n     int64
	total int64
	// wealthBuf and balBuf are reused scratch vectors for snapshots and
	// the audit's exact Gini.
	wealthBuf []float64
	balBuf    []int64
}

func newMetrics() Metrics {
	return Metrics{
		Gini:       trace.NewSeries("gini"),
		Population: trace.NewSeries("population"),
		Supply:     trace.NewSeries("supply"),
	}
}

// grow widens the histogram to cover balance v.
func (m *Metrics) grow(v int64) {
	if v < 0 {
		panic(fmt.Sprintf("sim: negative peer balance %d", v))
	}
	n := max(2*len(m.hist), int(v)+1, 64)
	m.hist = append(m.hist, make([]int64, n-len(m.hist))...)
}

// insert mirrors a peer joining with the given balance.
func (m *Metrics) insert(balance int64) {
	if uint64(balance) >= uint64(len(m.hist)) {
		m.grow(balance)
	}
	m.hist[balance]++
	m.n++
	m.total += balance
}

// remove mirrors a peer departing with the given balance.
func (m *Metrics) remove(balance int64) {
	m.hist[balance]--
	m.n--
	m.total -= balance
}

// move mirrors one balance changing from old to new.
func (m *Metrics) move(oldBal, newBal int64) {
	if uint64(newBal) >= uint64(len(m.hist)) {
		m.grow(newBal)
	}
	m.hist[oldBal]--
	m.hist[newBal]++
	m.total += newBal - oldBal
}
