package shard

import (
	"math"

	"creditp2p/internal/des"
	"creditp2p/internal/xrand"
)

// Reference event kinds of the scheduler-driven dispatch.
const (
	refLife uint16 = iota + 1
	refWork
)

// refDispatch is the time-ordered reference for the peer-major sweep: one
// des.Scheduler holds every peer's pending clocks, and each window fires
// them in global (time, seq) order, every event on its owner lane, with
// the same workload Arm/OnEvent and the same lifecycle code the sweep
// runs. Lanes receive their effects and lifecycle deltas in time order
// and sort nothing. It runs all lanes from lane 0's dispatch call; the
// other lanes' calls do nothing, so the dispatch phase stays race-free.
type refDispatch struct {
	e     *Engine
	sched *des.Scheduler
	pend  []des.Handle // each peer's pending workload event
}

// UseReferenceDispatch switches a started engine to the reference
// dispatch. Each peer's clocks enter the scheduler in index order,
// lifecycle before workload — the order the lanes armed them in.
func UseReferenceDispatch(e *Engine) {
	r := &refDispatch{e: e, sched: des.NewScheduler(), pend: make([]des.Handle, e.n)}
	for g := int32(0); g < int32(e.n); g++ {
		if e.life != nil {
			r.schedule(e.life[g], refLife, g)
		}
		r.pend[g] = r.schedule(e.next[g], refWork, g)
	}
	e.dispatchFn = func(ln *Lane) {
		if ln.S != 0 {
			return
		}
		for _, l := range e.lanes {
			for d := range l.out {
				l.out[d].Reset()
			}
		}
		r.sched.RunUntil(e.bNow, r.fire)
	}
}

// schedule queues a finite clock; +Inf means the clock is stopped.
func (r *refDispatch) schedule(t float64, kind uint16, g int32) des.Handle {
	if math.IsInf(t, 1) {
		return des.Handle{}
	}
	h, err := r.sched.ScheduleAt(t, kind, g, 0)
	if err != nil {
		panic(err)
	}
	return h
}

// fire runs one event on its owner lane and queues the clocks it set.
func (r *refDispatch) fire(ev des.Event) {
	e := r.e
	g := ev.Actor
	ln := e.laneOf(g)
	ln.fired++
	ln.markPeer(g)
	if ev.Kind == refWork {
		e.next[g] = e.cfg.Workload.OnEvent(ln, g, ev.Time)
		r.pend[g] = r.schedule(e.next[g], refWork, g)
		return
	}
	departing := e.flags[g]&aliveBit != 0
	ln.lifecycle(g, ev.Time)
	if departing {
		r.sched.Cancel(r.pend[g])
	}
	r.schedule(e.life[g], refLife, g)
	if !departing {
		r.pend[g] = r.schedule(e.next[g], refWork, g)
	}
}

// PeerState exposes the per-peer arrays for equivalence checks.
func (e *Engine) PeerState() (bal []int64, rng []xrand.SplitMix64, flags []uint8, next, life []float64) {
	return e.bal, e.rng, e.flags, e.next, e.life
}

// Merged exposes the last window's canonical merged effect sequence (the
// policy path's barrier merge).
func (e *Engine) Merged() []des.XEvent { return e.mergeAll }

// OutboxesSorted reports whether every lane's outboxes are in canonical
// order — the merge precondition the reference dispatch meets by
// construction.
func (e *Engine) OutboxesSorted() bool {
	for _, ln := range e.lanes {
		for d := range ln.out {
			evs := ln.out[d].Events()
			for i := 1; i < len(evs); i++ {
				a, b := evs[i-1], evs[i]
				if a.Time > b.Time || a.Time == b.Time && (a.Src > b.Src || a.Src == b.Src && a.Seq >= b.Seq) {
					return false
				}
			}
		}
	}
	return true
}

// MarkPeer flags peer g's segment dirty, as a mutation path would.
func (e *Engine) MarkPeer(g int32) { e.laneOf(g).markPeer(g) }
