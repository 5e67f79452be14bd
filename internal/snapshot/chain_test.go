package snapshot_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"creditp2p/internal/snapshot"
)

// mkLink builds a complete chained snapshot file with the given header
// and a small payload.
func mkLink(h snapshot.LinkHeader, payload uint64) []byte {
	w := snapshot.NewWriter(256)
	w.LinkHeader(h)
	w.Section("body")
	w.U64(payload)
	return w.Finish()
}

// crcOf reads a finished link's checksum trailer.
func crcOf(t *testing.T, link []byte) uint64 {
	t.Helper()
	r, err := snapshot.Open(link)
	if err != nil {
		t.Fatal(err)
	}
	return r.Checksum()
}

// mkChain builds a valid base + n-delta chain.
func mkChain(t *testing.T, id uint64, deltas int) [][]byte {
	t.Helper()
	chain := [][]byte{mkLink(snapshot.LinkHeader{Kind: snapshot.LinkBase, ID: id}, 0)}
	for k := 1; k <= deltas; k++ {
		chain = append(chain, mkLink(snapshot.LinkHeader{
			Kind:    snapshot.LinkDelta,
			ID:      id,
			Index:   uint32(k),
			PrevCRC: crcOf(t, chain[k-1]),
		}, uint64(k)))
	}
	return chain
}

func TestValidateChain(t *testing.T) {
	chain := mkChain(t, 0xabc, 3)
	if err := snapshot.ValidateChain(chain); err != nil {
		t.Fatalf("valid chain refused: %v", err)
	}
	if err := snapshot.ValidateChain(chain[:1]); err != nil {
		t.Fatalf("bare base refused: %v", err)
	}

	bad := []struct {
		name string
		make func() [][]byte
	}{
		{"empty", func() [][]byte { return nil }},
		{"delta first", func() [][]byte { return chain[1:] }},
		{"reordered deltas", func() [][]byte {
			return [][]byte{chain[0], chain[2], chain[1]}
		}},
		{"skipped delta", func() [][]byte {
			return [][]byte{chain[0], chain[1], chain[3]}
		}},
		{"duplicated delta", func() [][]byte {
			return [][]byte{chain[0], chain[1], chain[1]}
		}},
		{"foreign base", func() [][]byte {
			other := mkChain(t, 0xdef, 0)
			return [][]byte{other[0], chain[1]}
		}},
		{"same-id foreign delta", func() [][]byte {
			// Same chain id and index but a different capture: the prevCRC
			// hash chain is the only guard that catches it.
			forged := mkLink(snapshot.LinkHeader{
				Kind: snapshot.LinkDelta, ID: 0xabc, Index: 1, PrevCRC: 0x1234,
			}, 9)
			return [][]byte{chain[0], forged}
		}},
		{"corrupt middle link", func() [][]byte {
			evil := append([]byte(nil), chain[1]...)
			evil[len(evil)/2] ^= 0x40
			return [][]byte{chain[0], evil, chain[2]}
		}},
		{"truncated tail link", func() [][]byte {
			return [][]byte{chain[0], chain[1][:len(chain[1])-3]}
		}},
	}
	for _, tc := range bad {
		if err := snapshot.ValidateChain(tc.make()); err == nil {
			t.Errorf("%s: invalid chain validated", tc.name)
		}
	}
}

// TestSealMatchesSingleWriter pins the parallel-encode contract: sealing
// a header fragment plus raw fragments produces the exact bytes (and
// checksum) of one Writer emitting the same sections serially.
func TestSealMatchesSingleWriter(t *testing.T) {
	serial := snapshot.NewWriter(256)
	serial.Section("alpha")
	serial.U64(1)
	serial.I64s([]int64{2, 3, 4})
	serial.Section("beta")
	serial.F64(2.5)
	serial.Section("gamma")
	serial.U8s([]byte{9, 8, 7})
	want := serial.Finish()

	head := snapshot.NewWriter(64)
	head.Section("alpha")
	head.U64(1)
	head.I64s([]int64{2, 3, 4})
	frag1 := snapshot.NewRawWriter(64)
	frag1.Section("beta")
	frag1.F64(2.5)
	frag2 := snapshot.NewRawWriter(64)
	frag2.Section("gamma")
	frag2.U8s([]byte{9, 8, 7})
	got, crc := snapshot.Seal(nil, [][]byte{head.Frame(), frag1.Frame(), frag2.Frame()})
	if !bytes.Equal(got, want) {
		t.Fatalf("sealed fragments differ from the serial encoding: %d vs %d bytes", len(got), len(want))
	}
	if sum := crcOf(t, want); crc != sum {
		t.Fatalf("Seal reports crc %016x, trailer holds %016x", crc, sum)
	}

	// A recycled destination produces the same bytes.
	recycled, _ := snapshot.Seal(make([]byte, 0, 4096), [][]byte{head.Frame(), frag1.Frame(), frag2.Frame()})
	if !bytes.Equal(recycled, want) {
		t.Fatal("Seal into a recycled buffer diverges")
	}
}

// TestSealRecyclesGrowingBuffer pins the seal buffer's headroom: once
// allocated, a buffer absorbs later seals that grow by less than an eighth,
// as successive checkpoints of a growing run do.
func TestSealRecyclesGrowingBuffer(t *testing.T) {
	fragment := func(n int) [][]byte {
		w := snapshot.NewWriter(n)
		w.Section("body")
		w.U8s(make([]byte, n))
		return [][]byte{w.Frame()}
	}
	buf, _ := snapshot.Seal(nil, fragment(10_000))
	first := &buf[0]
	for n := 10_000; n < 11_000; n += 100 {
		buf, _ = snapshot.Seal(buf, fragment(n))
		if &buf[0] != first {
			t.Fatalf("a seal of a %d-byte fragment reallocated the buffer sized for 10000", n)
		}
	}
}

// TestWriterReset pins buffer recycling: a Reset writer re-emits the
// header (or stays raw) and reproduces identical bytes.
func TestWriterReset(t *testing.T) {
	w := snapshot.NewWriter(64)
	w.Section("x")
	w.U64(42)
	first := append([]byte(nil), w.Finish()...)
	w.Reset()
	w.Section("x")
	w.U64(42)
	if again := w.Finish(); !bytes.Equal(again, first) {
		t.Fatal("reset writer produced different bytes")
	}

	raw := snapshot.NewRawWriter(64)
	raw.Section("y")
	raw.U64(7)
	rawFirst := append([]byte(nil), raw.Frame()...)
	raw.Reset()
	raw.Section("y")
	raw.U64(7)
	if !bytes.Equal(raw.Frame(), rawFirst) {
		t.Fatal("reset raw writer produced different bytes")
	}
	if len(rawFirst) >= len(first) {
		t.Fatal("raw fragment should not carry the file header")
	}
}

func TestDirtyBits(t *testing.T) {
	var d snapshot.DirtyBits
	d.Grow(192)
	if d.Count() != 0 {
		t.Fatal("fresh map is dirty")
	}
	marks := []int{0, 1, 63, 64, 100, 191}
	for _, s := range marks {
		d.Mark(s)
	}
	d.Mark(100) // idempotent
	if got := d.Count(); got != len(marks) {
		t.Fatalf("count %d, want %d", got, len(marks))
	}
	var walked []int
	d.Walk(func(seg int) { walked = append(walked, seg) })
	for i, s := range marks {
		if walked[i] != s {
			t.Fatalf("walk order %v, want %v", walked, marks)
		}
	}
	if !d.Test(64) || d.Test(65) {
		t.Fatal("Test disagrees with the marks")
	}

	d.Grow(320) // growth preserves existing marks
	if d.Count() != len(marks) || !d.Test(191) {
		t.Fatal("Grow dropped marks")
	}
	d.Mark(250)
	if d.Count() != len(marks)+1 {
		t.Fatal("mark after growth lost")
	}

	d.Clear()
	if d.Count() != 0 || d.Test(0) || d.Test(250) {
		t.Fatal("Clear left marks behind")
	}
}

func TestChainStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := &snapshot.ChainStore{Path: filepath.Join(dir, "run.snap")}
	chain := mkChain(t, 0x77, 2)
	if err := st.WriteBase(chain[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteDelta(1, chain[1]); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteDelta(2, chain[2]); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("loaded %d links, want 3", len(got))
	}
	for k := range chain {
		if !bytes.Equal(got[k], chain[k]) {
			t.Fatalf("link %d bytes differ after the file round trip", k)
		}
	}

	// A new base must prune the previous chain's deltas.
	next := mkChain(t, 0x88, 0)
	if err := st.WriteBase(next[0]); err != nil {
		t.Fatal(err)
	}
	got, err = st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], next[0]) {
		t.Fatalf("after re-base the store holds %d links, want just the new base", len(got))
	}
	if _, err := os.Stat(filepath.Join(dir, "run.snap.d001")); !os.IsNotExist(err) {
		t.Fatal("stale delta file survived the re-base")
	}

	// Corruption on disk is refused at Load, not handed to the caller.
	if err := st.WriteDelta(1, chain[1]); err != nil { // wrong chain for the new base
		t.Fatal(err)
	}
	if _, err := st.Load(); err == nil {
		t.Fatal("store loaded a delta from a different chain")
	}

	if err := st.WriteDelta(0, nil); err == nil {
		t.Fatal("delta index 0 accepted")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.snap")
	if err := snapshot.WriteFileAtomic(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteFileAtomic(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Fatalf("read %q, want %q", got, "two")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}
