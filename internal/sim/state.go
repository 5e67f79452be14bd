package sim

import (
	"fmt"
	"hash/fnv"
	"math"

	"creditp2p/internal/des"
	"creditp2p/internal/snapshot"
	"creditp2p/internal/stats"
	"creditp2p/internal/trace"
)

// --- single-event stepping (the crash-point substrate) ---

// Step delivers the next pending event within the horizon, reporting
// whether one fired. for k.Step() {} followed by k.SealTime() is
// byte-identical to k.Run(); checkpointing drivers use it to stop at an
// arbitrary event index.
func (k *Kernel) Step() bool {
	return k.Sched.StepUntil(k.cfg.Horizon, k.dispatch)
}

// SealTime advances virtual time to the horizon after the last event — the
// epilogue Run performs implicitly.
func (k *Kernel) SealTime() {
	k.Sched.FinishAt(k.cfg.Horizon)
}

// --- fault injection surface ---

// FaultInjector intercepts kernel operations for deterministic fault
// injection (internal/fault). Both hooks fire before any state is mutated,
// so an injected fault leaves every invariant intact — the economy degrades
// (failed transfers, lost workload events), it never corrupts.
type FaultInjector interface {
	// FailTransfer, returning true, makes a peer-to-peer transfer fail as
	// if the payer were insolvent.
	FailTransfer(now float64, from, to int32, amount int64) bool
	// DropEvent, returning true, silently discards a workload event
	// (kind >= KindUser) before dispatch. Kernel-owned recurring streams
	// (ticks, samples, policy epochs) are never offered.
	DropEvent(ev des.Event) bool
}

// SetFaultInjector registers (or, with nil, clears) the fault injector.
func (k *Kernel) SetFaultInjector(fi FaultInjector) { k.fault = fi }

// --- peer table state ---

// SaveState serializes the dense peer table per-field plus the free list;
// the id->px interning table is derived and rebuilt on load.
func (t *PeerTable) SaveState(w *snapshot.Writer) {
	w.Section("peers")
	n := len(t.peers)
	ids := make([]int32, n)
	accts := make([]int32, n)
	gens := make([]uint32, n)
	alive := make([]uint8, n)
	for i, p := range t.peers {
		ids[i] = p.ID
		accts[i] = p.Acct
		gens[i] = p.Gen
		if p.Alive {
			alive[i] = 1
		}
	}
	w.I32s(ids)
	w.I32s(accts)
	w.U32s(gens)
	w.U8s(alive)
	w.I32s(t.free)
	w.Int(len(t.idx))
	w.Int(t.live)
}

// LoadState restores a table serialized by SaveState. maxPeers, when
// positive, bounds the accepted slab size.
func (t *PeerTable) LoadState(r *snapshot.Reader, maxPeers int) error {
	r.Section("peers")
	ids := r.I32s(maxPeers)
	accts := r.I32s(maxPeers)
	gens := r.U32s(maxPeers)
	alive := r.U8s(maxPeers)
	free := r.I32s(maxPeers)
	idxLen := r.Int()
	live := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	n := len(ids)
	if len(accts) != n || len(gens) != n || len(alive) != n {
		return fmt.Errorf("sim: peer slab field lengths disagree (%d/%d/%d/%d)", n, len(accts), len(gens), len(alive))
	}
	if idxLen < 0 || (maxPeers > 0 && idxLen > 64*maxPeers) {
		return fmt.Errorf("sim: peer id table length %d exceeds the caller's budget", idxLen)
	}
	t.peers = make([]Peer, n)
	t.idx = make([]int32, idxLen)
	for i := range t.peers {
		t.peers[i] = Peer{ID: ids[i], Acct: accts[i], Gen: gens[i], Alive: alive[i] != 0}
		if t.peers[i].Alive {
			id := int(ids[i])
			if id < 0 || id >= idxLen {
				return fmt.Errorf("sim: live peer id %d outside the %d-entry id table", id, idxLen)
			}
			t.idx[id] = int32(i) + 1
		}
	}
	t.free = free
	t.live = live
	return nil
}

// CheckIntegrity audits the slab bookkeeping: the live counter, the free
// list (exactly the dead slots, no duplicates), and the interning table's
// agreement with the slab.
func (t *PeerTable) CheckIntegrity() error {
	liveCount := 0
	for px := range t.peers {
		p := &t.peers[px]
		if p.Alive {
			liveCount++
			if got := t.PxOf(int(p.ID)); got != int32(px) {
				return fmt.Errorf("sim: peer table id %d interns to px %d, but slot %d claims it", p.ID, got, px)
			}
		}
	}
	if liveCount != t.live {
		return fmt.Errorf("sim: peer table live counter %d but %d slots are alive", t.live, liveCount)
	}
	if len(t.free)+liveCount != len(t.peers) {
		return fmt.Errorf("sim: peer table free list holds %d slots, want %d (slab %d - live %d)", len(t.free), len(t.peers)-liveCount, len(t.peers), liveCount)
	}
	seen := make(map[int32]bool, len(t.free))
	for _, px := range t.free {
		if px < 0 || int(px) >= len(t.peers) {
			return fmt.Errorf("sim: peer table free list references slot %d outside the %d-slot slab", px, len(t.peers))
		}
		if seen[px] {
			return fmt.Errorf("sim: peer table slot %d appears twice in the free list", px)
		}
		seen[px] = true
		if t.peers[px].Alive {
			return fmt.Errorf("sim: peer table free-listed slot %d is alive", px)
		}
	}
	return nil
}

// --- metrics state ---

func saveSeries(w *snapshot.Writer, s *trace.Series) {
	w.F64s(s.Times)
	w.F64s(s.Values)
}

func loadSeries(r *snapshot.Reader, s *trace.Series) {
	s.Times = r.F64s(0)
	s.Values = r.F64s(0)
}

// SaveState serializes the recorded series and snapshots. The balance
// histogram is derived from the ledger at restore, and scratch buffers are
// capacity only, so neither is stored.
func (m *Metrics) SaveState(w *snapshot.Writer) {
	w.Section("metrics")
	saveSeries(w, m.Gini)
	saveSeries(w, m.Population)
	saveSeries(w, m.Supply)
	w.Int(len(m.Snapshots))
	for _, s := range m.Snapshots {
		w.F64(s.Time)
		w.F64s(s.Sorted)
	}
}

// LoadState restores metrics serialized by SaveState. The series objects
// (and their names) come from the reconstructed kernel; only their data is
// replaced.
func (m *Metrics) LoadState(r *snapshot.Reader) error {
	r.Section("metrics")
	loadSeries(r, m.Gini)
	loadSeries(r, m.Population)
	loadSeries(r, m.Supply)
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if n < 0 || n > r.Remaining()/8 {
		return fmt.Errorf("sim: snapshot count %d exceeds the remaining payload", n)
	}
	m.Snapshots = make([]Snapshot, 0, n)
	for i := 0; i < n; i++ {
		t := r.F64()
		sorted := r.F64s(0)
		m.Snapshots = append(m.Snapshots, Snapshot{Time: t, Sorted: sorted})
	}
	return r.Err()
}

// rebuildHist derives the balance histogram from the restored peer table
// and ledger. A live peer without an account, or with a balance outside
// [0, supply], is refused rather than trusted with an allocation.
func (k *Kernel) rebuildHist() error {
	m := &k.Metrics
	clear(m.hist)
	m.n, m.total = 0, 0
	for px := range k.Peers.peers {
		p := &k.Peers.peers[px]
		if !p.Alive {
			continue
		}
		b, err := k.Ledger.Balance(int(p.ID))
		if err != nil {
			return fmt.Errorf("sim: live peer %d: %w", p.ID, err)
		}
		if b < 0 || b > k.Ledger.Total() {
			return fmt.Errorf("sim: live peer %d holds %d credits, outside the supply [0, %d]", p.ID, b, k.Ledger.Total())
		}
		m.insert(b)
	}
	return nil
}

// --- kernel state ---

// configDigest folds the checkpoint-relevant kernel configuration into one
// word, so a restore against a differently-configured kernel is refused
// with a clear error instead of producing silently divergent output.
func (k *Kernel) configDigest() uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(k.cfg.InitialWealth))
	put(math.Float64bits(k.cfg.Horizon))
	put(uint64(k.cfg.Seed))
	put(math.Float64bits(k.cfg.SampleEvery))
	put(math.Float64bits(k.cfg.TickEvery))
	put(uint64(k.cfg.MinPopulation))
	put(uint64(len(k.cfg.SnapshotTimes)))
	var flags uint64
	if k.cfg.Churn != nil {
		flags |= 2
	}
	if k.cfg.Graph != nil {
		flags |= 4
	}
	if k.engine != nil {
		flags |= 8
	}
	put(flags)
	put(math.Float64bits(k.epochEvery))
	// The policy pipeline's length: a restore into a kernel whose pipeline
	// gained or lost a stage must fail here, at the digest, not later as
	// section drift inside the engine's serialized state.
	if k.engine != nil {
		put(uint64(k.engine.Len()))
	}
	return h.Sum64()
}

// SaveState serializes the complete mutable kernel state: scheduler (slab,
// free list, pending set), the RNG stream position, ledger, peer table,
// metrics, the graph (when one is attached), and the bound policy
// pipeline's state. The workload's own state is serialized by the workload
// around this call.
func (k *Kernel) SaveState(w *snapshot.Writer) {
	w.Section("kernel")
	w.U64(k.configDigest())
	w.Bool(k.running)
	w.U64(k.joins)
	w.U64(k.departures)
	w.Int(len(k.external))
	k.Sched.SaveState(w)
	k.RNG.SaveState(w)
	k.Ledger.SaveState(w)
	k.Peers.SaveState(w)
	k.Metrics.SaveState(w)
	if k.cfg.Graph != nil {
		k.cfg.Graph.SaveState(w)
	}
	if k.engine != nil {
		k.engine.SaveState(w)
	}
}

// LoadState restores kernel state serialized by SaveState into a kernel
// freshly reconstructed from the same configuration (same workload, same
// policy pipeline, same external accounts opened in the same order — the
// config digest guards this). maxPeers, when positive, bounds every
// peer-indexed allocation. After LoadState, continue with Run (not Start:
// the restored pending set already holds every armed event).
func (k *Kernel) LoadState(r *snapshot.Reader, maxPeers int) error {
	r.Section("kernel")
	digest := r.U64()
	running := r.Bool()
	joins := r.U64()
	departures := r.U64()
	nExternal := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if want := k.configDigest(); digest != want {
		return fmt.Errorf("sim: snapshot config digest %016x != this kernel's %016x — restoring into a different configuration", digest, want)
	}
	if nExternal != len(k.external) {
		return fmt.Errorf("sim: snapshot has %d external accounts, the reconstructed kernel %d", nExternal, len(k.external))
	}
	k.running = running
	k.joins = joins
	k.departures = departures
	if err := k.Sched.LoadState(r); err != nil {
		return err
	}
	k.RNG.LoadState(r)
	if err := k.Ledger.LoadState(r, 2*maxPeers+16); err != nil {
		return err
	}
	if err := k.Peers.LoadState(r, maxPeers); err != nil {
		return err
	}
	if err := k.Metrics.LoadState(r); err != nil {
		return err
	}
	if err := k.rebuildHist(); err != nil {
		return err
	}
	if k.cfg.Graph != nil {
		if err := k.cfg.Graph.LoadState(r, maxPeers); err != nil {
			return err
		}
	}
	if k.engine != nil {
		k.engine.LoadState(r)
	}
	return r.Err()
}

// --- periodic invariant auditor ---

// Audit verifies the run's invariants mid-run: credit conservation,
// scheduler and peer-table slab/free-list integrity, the balance
// histogram's aggregate sync with the ledger, and its Gini's agreement with
// the exact sorting Gini (bit-identical by contract). The fault-injection
// harness calls it periodically; it returns errors, never panics.
func (k *Kernel) Audit() error {
	if err := k.Ledger.CheckConservation(); err != nil {
		return fmt.Errorf("sim: audit: %w", err)
	}
	if err := k.Sched.CheckIntegrity(); err != nil {
		return fmt.Errorf("sim: audit: %w", err)
	}
	if err := k.Peers.CheckIntegrity(); err != nil {
		return fmt.Errorf("sim: audit: %w", err)
	}
	if err := k.checkHist(); err != nil {
		return fmt.Errorf("sim: audit: %w", err)
	}
	m := &k.Metrics
	if m.n > 0 {
		gHist, _ := stats.GiniHist(m.hist)
		bals := k.balanceVector()
		gExact, buf, err := stats.GiniIntsInPlace(bals, m.wealthBuf)
		m.wealthBuf = buf
		if err != nil {
			return fmt.Errorf("sim: audit: exact Gini: %w", err)
		}
		if gHist != gExact {
			return fmt.Errorf("sim: audit: histogram Gini %v != exact Gini %v over %d live peers — the samplers diverged", gHist, gExact, len(bals))
		}
	}
	return nil
}
