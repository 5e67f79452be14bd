// Package cacheline keeps state that different goroutines write
// concurrently off shared cache lines. The sharded kernel's lanes each
// own small, hot records — counters, dirty bitmaps, scheduler cursors —
// that the allocator would otherwise pack next to another lane's, so
// every write would bounce the line between cores (false sharing).
package cacheline

import "unsafe"

// Size is the cache-line size padding is laid out for: 64 bytes on amd64
// and the common arm64 cores.
const Size = 64

// Pad is a one-line spacer field. A struct that opens and closes with a
// Pad shares no cache line between the fields in between and any other
// object, wherever the allocator places it.
type Pad [Size]byte

// Slice returns a zeroed n-element slice whose elements share no cache
// line with any other allocation: the backing array carries at least Size
// bytes of spare elements on either side. Capacity is clipped to n, so an
// append reallocates rather than writing into the padding.
func Slice[T any](n int) []T {
	var z T
	sz := int(unsafe.Sizeof(z))
	pad := (Size + sz - 1) / sz
	buf := make([]T, n+2*pad)
	return buf[pad : pad+n : pad+n]
}
