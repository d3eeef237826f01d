package compress

import (
	"math"
	"testing"
)

// TestNormDecayBits pins the norm-driven width rule: one extra bit per
// halving of the gradient norm from the reference, clamped to [1, 8], with
// degenerate norms falling back to the reference width.
func TestNormDecayBits(t *testing.T) {
	cases := []struct {
		bits0       int
		norm0, norm float64
		want        int
	}{
		{4, 1, 1, 4},     // no decay, reference width
		{4, 1, 0.5, 5},   // one halving, one extra bit
		{4, 1, 0.25, 6},  // two halvings
		{4, 1, 2, 3},     // norm GREW: coarser wire
		{4, 1, 1e-10, 8}, // deep decay clamps at 8
		{4, 1, 1e10, 1},  // explosion clamps at 1
		{4, 0, 0.5, 4},   // unset reference: reference width
		{4, 1, 0, 4},     // dead gradient: reference width
		{4, 1, -1, 4},    // negative: reference width
		{4, math.NaN(), 1, 4},
		{4, 1, math.NaN(), 4},
		{0, 1, 1, 1},  // bits0 itself is clamped
		{12, 1, 1, 8}, // ... from both sides
	}
	for _, tc := range cases {
		if got := NormDecayBits(tc.bits0, tc.norm0, tc.norm); got != tc.want {
			t.Errorf("NormDecayBits(%d, %g, %g) = %d, want %d",
				tc.bits0, tc.norm0, tc.norm, got, tc.want)
		}
	}
}

// TestQSGDSetBits: the exact-width setter bypasses the ratio rounding,
// clamps to [1, 8], and the chosen width reaches the wire message.
func TestQSGDSetBits(t *testing.T) {
	c := mustNew(t, "qsgd:4", 3)
	c.SetBits(7)
	if c.bits != 7 {
		t.Fatalf("%d bits after SetBits(7)", c.bits)
	}
	msg, err := c.Compress(testVec(32, 5))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Bits != 7 {
		t.Fatalf("wire message carries %d bits, want 7", msg.Bits)
	}
	c.SetBits(99)
	if c.bits != 8 {
		t.Fatalf("%d bits after SetBits(99), want clamp to 8", c.bits)
	}
	c.SetBits(0)
	if c.bits != 1 {
		t.Fatalf("%d bits after SetBits(0), want clamp to 1", c.bits)
	}
}

// TestSetBitsUnderEveryModifier: SetBits reaches QSGD's width with or
// without error feedback and a float32 wire, and leaves every other scheme's
// messages exactly as an untouched twin's.
func TestSetBitsUnderEveryModifier(t *testing.T) {
	for _, mod := range []string{"", "+ef", "+f32", "+ef+f32"} {
		q := mustNew(t, "qsgd:4"+mod, 4)
		q.SetBits(6)
		msg, err := q.Compress(testVec(32, 6))
		if err != nil {
			t.Fatal(err)
		}
		if msg.Bits != 6 {
			t.Fatalf("qsgd:4%s: the message carries %d bits after SetBits(6)", mod, msg.Bits)
		}
		for _, base := range []string{"identity", "topk:0.5", "randk:0.5"} {
			c, twin := mustNew(t, base+mod, 4), mustNew(t, base+mod, 4)
			c.SetBits(6)
			for round := 0; round < 2; round++ {
				got, _ := c.Compress(testVec(32, uint64(round)))
				want, _ := twin.Compress(testVec(32, uint64(round)))
				if !identicalMessages(got, want) {
					t.Fatalf("%s%s round %d: SetBits changed the message", base, mod, round)
				}
			}
		}
	}
}
