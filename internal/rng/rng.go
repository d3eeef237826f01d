// Package rng provides a deterministic, splittable pseudo-random number
// generator and the probability distributions used throughout the AdaComm
// reproduction: local-step compute times Y, communication delays D, data
// synthesis, and Monte-Carlo runtime experiments.
//
// Determinism matters here: every experiment in the paper reproduction is
// seeded, so that figures and tables regenerate identically run-to-run.
// The generator is xoshiro256**, seeded via SplitMix64, which is the
// combination recommended by the xoshiro authors. Split creates an
// independent stream, which lets each simulated worker own its own
// generator without cross-worker coupling.
//
// # Normal draws
//
// NormFloat64 is Marsaglia's polar method: an attempt draws two uniforms, u
// then v, on (-1, 1), forms s = u*u + v*v, and is accepted when 0 < s < 1
// (pi/4 of the time), yielding u * sqrt(-2 ln(s) / s); a rejected attempt is
// simply followed by the next. FillNormFloat64 is the same stream produced a
// tile of attempts at a time: the attempts run with the generator's state in
// registers and no branch on acceptance, and a tile's accepted pairs are
// finished together by tensor.PolarNormals, whose AVX2 kernel evaluates the
// logarithm, divide and square root four draws to an instruction with the
// bits of the scalar routines. Every bulk consumer — the data generators,
// the layer initialisers — fills and then applies its own scale and shift.
//
// THE RULE that keeps a fill equal to that many calls, value for value and
// in what it leaves the generator: every attempt consumes exactly two
// uniforms, u then v, accepted or not; and a tile never makes more attempts
// than there are normals still to produce. Accepted attempts cannot
// outnumber attempts, so a fill can neither draw past the attempt on which
// the last call would have returned nor need to give anything back, and the
// tile size (normTile) is invisible in the output. NormFloat64 is the oracle:
// its body does not change, and rng_test.go holds every fill to it, the next
// Uint64 included.
package rng

import (
	"math"

	"repro/internal/tensor"
)

// Rand is a deterministic pseudo-random number generator (xoshiro256**).
// It is NOT safe for concurrent use; use Split to derive independent
// streams for concurrent consumers.
type Rand struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding only.
func splitMix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Two generators with
// the same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro requires a non-zero state; SplitMix64 guarantees this with
	// overwhelming probability, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is independent of the
// receiver's future outputs. The receiver is advanced.
func (r *Rand) Split() *Rand {
	// Derive a fresh seed from the parent stream and re-expand through
	// SplitMix64 so parent and child states are decorrelated.
	return New(r.Uint64() ^ 0xA3EC647659359ACD)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be faster, but
	// simple modulo rejection keeps the implementation auditable; the bias
	// rejection loop guarantees uniformity.
	bound := uint64(n)
	threshold := -bound % bound // (2^64 - bound) mod bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles the slice in place (Fisher-Yates).
func (r *Rand) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal sample (Box-Muller, polar form).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential sample with rate 1 (mean 1).
func (r *Rand) ExpFloat64() float64 {
	// Inverse CDF on (0,1]; 1-Float64() avoids log(0).
	return -math.Log(1 - r.Float64())
}

// FillFloat64 fills dst with len(dst) successive Float64 draws: the same
// values in the same order, and the generator is left where that many calls
// would leave it. The four state words live in locals across the fill, which
// a call per draw cannot do.
func (r *Rand) FillFloat64(dst []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		result := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		dst[i] = float64(result>>11) / (1 << 53)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// xoshiro is Uint64's step on state held in locals: the output and the next
// state.
func xoshiro(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return x, s0, s1, s2, s3
}

// normTile is how many polar attempts FillNormFloat64 makes between calls of
// the transform. It is invisible in the output (see the package comment).
const normTile = 128

// FillNormFloat64 fills dst with len(dst) successive NormFloat64 draws: the
// same values in the same order, and the generator is left where that many
// calls would leave it. It makes a tile of polar attempts at a time — the
// state words in locals, each attempt two uniforms (u, then v), the accepted
// (u, s) pairs compacted into two stack tiles without a branch — and
// finishes a tile's accepted pairs with tensor.PolarNormals, four to an
// instruction where the host has the AVX2 tier.
//
// It never draws past where the calls would stop, so there is nothing to
// rewind: a tile makes at most as many attempts as there are normals still to
// produce, and accepted <= attempts <= still needed, so no tile yields more
// than dst has room for. The fill ends with a tile that accepts every one of
// its attempts, and that tile's last attempt is the one on which the last
// call returns. (The shortfall shrinks by the rejection rate, ~0.21x, per
// tile.)
func (r *Rand) FillNormFloat64(dst []float64) {
	var us, ss [normTile]float64
	for len(dst) > 0 {
		attempts := min(normTile, len(dst))
		s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
		acc := 0
		for i := 0; i < attempts; i++ {
			var x, y uint64
			x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
			y, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
			u := 2*(float64(x>>11)/(1<<53)) - 1
			v := 2*(float64(y>>11)/(1<<53)) - 1
			s := u*u + v*v
			// Store, then keep the slot only if 0 < s < 1 — as an integer,
			// because one attempt in five is rejected and a branch would
			// mispredict on most of those. s is never negative or NaN: the
			// sign bit of s-1 says s < 1, and adding 2^63-1 to the bits of s
			// carries into bit 63 unless they are all zero. (acc <= i < normTile;
			// the mask only lets the compiler see it.)
			us[acc&(normTile-1)], ss[acc&(normTile-1)] = u, s
			acc += int(math.Float64bits(s-1) >> 63 & ((math.Float64bits(s) + (1<<63 - 1)) >> 63))
		}
		r.s = [4]uint64{s0, s1, s2, s3}
		tensor.PolarNormals(dst[:acc], us[:acc], ss[:acc])
		dst = dst[acc:]
	}
}
