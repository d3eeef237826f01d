package tensor

import (
	"math"
	"math/bits"
	"testing"
)

// Uniforms against the scalar generator it replaces. eachTier runs the
// exported entry point on the Go tier (where this checks the wrapper: the
// tail, the state hand-off, nothing written past dst) and on the AVX2 tier
// (where it checks the chain and every lane's conversion), always against
// uniformRef, one Uint64 and one Float64 at a time.

// uniformRef is rng's Uint64 on a state held here.
func uniformRef(s *[4]uint64) uint64 {
	x := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return x
}

// uniformStates are states whose outputs reach the conversion's edges: the
// all-zero state (every output 0, the +0 the split must give), a state whose
// first output has all 53 bits set (x>>11 == 2^53-1, whose draw is the
// largest below 1), and states seeded at random.
func uniformStates(r *parityRNG) [][4]uint64 {
	// x = rotl(s1*5, 7)*9 is all ones for s1 = rotr(^0 * 9^-1, 7) * 5^-1, the
	// inverses taken mod 2^64.
	var inv9, inv5 uint64 = 0x8e38e38e38e38e39, 0xcccccccccccccccd
	ones := bits.RotateLeft64(^uint64(0)*inv9, -7) * inv5
	states := [][4]uint64{{}, {1, ones, 2, 3}, {0, 1 << 63, 0, 0}}
	for i := 0; i < 5; i++ {
		states = append(states, [4]uint64{r.word(), r.word(), r.word(), r.word()})
	}
	return states
}

// word is the generator's next 64 bits, the high half folded onto the low.
func (r *parityRNG) word() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r) ^ uint64(*r)>>32
}

func uniformsTwin(t *testing.T) {
	const canary = 0x5ca1ab1e
	r := parityRNG(42)
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257, 650}
	for _, st := range uniformStates(&r) {
		for _, n := range lengths {
			for align := 0; align < 4; align++ {
				dst := make([]float64, align+n+4)[align:]
				for i := range dst {
					dst[i] = canary
				}
				got, want := st, st
				Uniforms(dst[:n], &got)
				for i := 0; i < n; i++ {
					x := uniformRef(&want)
					if w := float64(x>>11) / (1 << 53); math.Float64bits(dst[i]) != math.Float64bits(w) {
						t.Fatalf("state %x n=%d align=%d: dst[%d] = %x, Float64 %x", st, n, align, i, math.Float64bits(dst[i]), math.Float64bits(w))
					}
				}
				for i, v := range dst[n:] {
					if v != canary {
						t.Fatalf("state %x n=%d align=%d: dst[%d] written past the window", st, n, align, n+i)
					}
				}
				if a, b := uniformRef(&got), uniformRef(&want); got != want || a != b {
					t.Fatalf("state %x n=%d: left at %x (next Uint64 %x), the calls leave %x (next %x)", st, n, got, a, want, b)
				}
			}
		}
	}
	// The ones state's first draw is the largest below 1, the zero state's 0.
	var d [4]float64
	s := uniformStates(&r)[1]
	Uniforms(d[:], &s)
	if d[0] != 1-0x1p-53 {
		t.Fatalf("all-ones output drew %v, want 1-2^-53", d[0])
	}
}

func TestUniformsMatchScalarGenerator(t *testing.T) { eachTier(t, uniformsTwin) }

// FuzzUniformsTwin: any state, eight draws (two kernel groups) plus a tail of
// up to three, against the scalar generator, the state after them included.
func FuzzUniformsTwin(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint8(0))
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), uint8(3))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint8(1))
	f.Fuzz(func(t *testing.T, s0, s1, s2, s3 uint64, tail uint8) {
		n := 8 + int(tail%4)
		dst := make([]float64, n+1)
		dst[n] = math.NaN()
		got := [4]uint64{s0, s1, s2, s3}
		want := got
		Uniforms(dst[:n], &got)
		for i := 0; i < n; i++ {
			if w := float64(uniformRef(&want)>>11) / (1 << 53); math.Float64bits(dst[i]) != math.Float64bits(w) {
				t.Fatalf("draw %d: %x, Float64 %x", i, math.Float64bits(dst[i]), math.Float64bits(w))
			}
		}
		if got != want || !math.IsNaN(dst[n]) {
			t.Fatalf("state %x, the calls leave %x; sentinel %v", got, want, dst[n])
		}
	})
}
