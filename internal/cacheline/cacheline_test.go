package cacheline

import (
	"testing"
	"unsafe"
)

// lines returns the first and last cache-line index the n bytes at p
// cover.
func lines(p unsafe.Pointer, n uintptr) (lo, hi uintptr) {
	return uintptr(p) / Size, (uintptr(p) + n - 1) / Size
}

// TestSliceOwnsItsLines allocates small slices back to back — the pattern
// that packs per-lane records into shared lines — and requires every
// slice's cache lines to be disjoint from every other's.
func TestSliceOwnsItsLines(t *testing.T) {
	type span struct{ lo, hi uintptr }
	var words, recs []span
	for i := 0; i < 8; i++ {
		w := Slice[uint64](3)
		lo, hi := lines(unsafe.Pointer(&w[0]), 3*8)
		words = append(words, span{lo, hi})
		r := Slice[[40]byte](1)
		lo, hi = lines(unsafe.Pointer(&r[0]), 40)
		recs = append(recs, span{lo, hi})
		if len(w) != 3 || cap(w) != 3 || len(r) != 1 || cap(r) != 1 {
			t.Fatalf("Slice returned len/cap %d/%d and %d/%d", len(w), cap(w), len(r), cap(r))
		}
	}
	all := append(words, recs...)
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[i].lo <= all[j].hi && all[j].lo <= all[i].hi {
				t.Errorf("allocations %d and %d share cache lines %v / %v", i, j, all[i], all[j])
			}
		}
	}
}
