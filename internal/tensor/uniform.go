package tensor

import "math/bits"

// Uniform draws for rng.(*Rand).FillFloat64: xoshiro256** advanced len(dst)
// steps, each output mapped to [0, 1) the way Float64 maps it. Like
// PolarNormals it is a Go loop — the fallback, the finisher of the len % 4
// draws a kernel leaves, and the oracle — with an AVX2 twin (uniform_amd64.s)
// behind the package's one probe.
//
// The kernel contract. The state chain is serial and stays scalar: the
// kernel advances it in general registers, four steps unrolled, and stores
// each step's s1 — the one word the output reads — into dst as raw bits. A
// finish four groups behind the chain turns those words into draws in place,
// four to an instruction, exact in every step:
//   - rotl(s1*5, 7)*9 >> 11 in 64-bit integer lanes (the multiplies are a
//     shift and an add, AVX2 having no 64-bit multiply), wrapping as the
//     scalar code wraps;
//   - the 53-bit integer q to a double through a 2^84 / 2^52 split:
//     (2^84 + hi*2^32) - (2^84 + 2^52) + (2^52 + lo), with hi and lo the top
//     21 and low 32 bits of q. Both operands of the subtraction lie in
//     [2^84, 2^85), so it is exact (Sterbenz), and the sum is q itself,
//     which a double holds — the value CVTSQ2SD gives, +0 included;
//   - the divide by 2^53 as a multiply by 2^-53, exact for a power of two.
// So the lanes hold Float64's bits, and the state after the fill is where
// len(dst) Uint64 calls would leave it.

// Uniforms fills dst with len(dst) successive xoshiro256** outputs of the
// state s, each as float64(x>>11) / 2^53, and advances s past them. It is
// what rng.(*Rand).Float64 returns, len(dst) times.
func Uniforms(dst []float64, s *[4]uint64) {
	n := uniformsBulk(dst, s)
	uniformsGo(dst[n:], s)
}

func uniformsGo(dst []float64, s *[4]uint64) {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	for i := range dst {
		x := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		dst[i] = float64(x>>11) / (1 << 53)
	}
	*s = [4]uint64{s0, s1, s2, s3}
}
