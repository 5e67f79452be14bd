package sim

import (
	"testing"

	"creditp2p/internal/des"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// fuzzWorkload is a minimal workload: it tracks join/depart callbacks and
// otherwise lets the kernel run bare.
type fuzzWorkload struct {
	joins, departs int
}

func (w *fuzzWorkload) OnJoin(int32) error { w.joins++; return nil }
func (w *fuzzWorkload) OnDepart(int32)     { w.departs++ }
func (w *fuzzWorkload) OnEvent(des.Event)  {}
func (w *fuzzWorkload) Sample(float64)     {}

// FuzzKernelConservation drives a kernel through an arbitrary interleaving
// of joins, departures, peer transfers, pot transfers and deposits decoded
// from the fuzz input, and asserts the ledger's conservation invariant and
// the balance histogram's sync check afterwards. Any byte string is a
// valid program; the fuzzer's job is to find an interleaving whose
// bookkeeping drifts.
func FuzzKernelConservation(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 3, 3, 1, 1, 1, 2, 2, 2, 0, 0, 0, 4, 4})
	f.Add([]byte{})
	f.Add([]byte{255, 254, 253, 0, 1, 128, 64, 32, 16, 8, 4, 2, 1, 0, 77})
	f.Fuzz(func(t *testing.T, program []byte) {
		g := topology.NewGraph()
		for id := 0; id < 4; id++ {
			if err := g.AddNode(id); err != nil {
				t.Fatal(err)
			}
		}
		k, err := NewKernel(Config{
			Graph:         g,
			InitialWealth: 10,
			Horizon:       1000,
			Seed:          42,
			MinPopulation: 1,
		}, &fuzzWorkload{})
		if err != nil {
			t.Fatal(err)
		}
		pot, err := k.OpenExternal(-1, 5)
		if err != nil {
			t.Fatal(err)
		}
		nextID := 0
		for ; nextID < 4; nextID++ {
			if _, err := k.Join(nextID); err != nil {
				t.Fatal(err)
			}
		}
		r := xrand.New(99)
		pick := func() (int32, bool) {
			if k.Peers.Len() == 0 {
				return 0, false
			}
			px := int32(r.Intn(k.Peers.Len()))
			return px, k.Peers.At(px).Alive
		}
		for _, op := range program {
			switch op % 5 {
			case 0: // join a fresh peer
				if err := g.AddNode(nextID); err != nil {
					t.Fatal(err)
				}
				if _, err := k.Join(nextID); err != nil {
					t.Fatalf("join %d: %v", nextID, err)
				}
				nextID++
			case 1: // depart a (maybe live) peer
				if px, ok := pick(); ok {
					k.Depart(px)
				}
			case 2: // peer-to-peer transfer
				a, aok := pick()
				b, bok := pick()
				if aok && bok && a != b {
					k.Transfer(a, b, int64(op%7))
				}
			case 3: // pot traffic in both directions
				if px, ok := pick(); ok {
					if op%2 == 0 {
						k.TransferOut(px, pot, int64(op%4))
					} else {
						k.TransferIn(pot, px, int64(op%4))
					}
				}
			case 4: // injection
				if px, ok := pick(); ok {
					if err := k.Deposit(px, int64(op%5)); err != nil {
						t.Fatalf("deposit: %v", err)
					}
				}
			}
		}
		if err := k.Finish(); err != nil {
			t.Fatalf("%v (after %d ops)", err, len(program))
		}
	})
}
