package xrand

import "testing"

// TestRNGJumpMatchesReplay pins the jump-ahead restore path to the step
// replay it short-cuts: from several stream positions, jumping k steps
// leaves the same register, indexes and draw count as k draws, and the
// streams stay equal afterwards — across k below, at and above one
// register length and past the replay threshold.
func TestRNGJumpMatchesReplay(t *testing.T) {
	for _, start := range []uint64{0, 1, 1000} {
		for _, k := range []uint64{1, 272, 273, 606, 607, 608, 12345, skipJump + 17} {
			want := New(31)
			got := New(31)
			for range start {
				want.next()
				got.next()
			}
			for range k {
				want.next()
			}
			got.jump(k)
			if got.vec != want.vec || got.tap != want.tap || got.feed != want.feed || got.draws != want.draws {
				t.Fatalf("start %d, k %d: jumped state differs from replay (draws %d vs %d)", start, k, got.draws, want.draws)
			}
			for i := range 1000 {
				if a, b := got.Int63(), want.Int63(); a != b {
					t.Fatalf("start %d, k %d: draw %d after the jump is %d, want %d", start, k, i, a, b)
				}
			}
		}
	}
}
