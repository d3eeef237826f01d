package tensor

import (
	"math"
	"testing"
)

// PolarNormals against the scalar expression it replaces. eachTier runs the
// exported entry point on the Go tier (where this checks the wrapper: tail,
// lengths, nothing written outside the window) and on the AVX2 tier (where it
// checks every instruction against math.Log, math.Sqrt and the compiler's
// multiply and divide), always against polarRef.

// polarRef is rng.NormFloat64's return expression, one draw at a time.
func polarRef(u, s float64) float64 { return u * math.Sqrt(-2*math.Log(s)/s) }

const sqrt2Half = math.Sqrt2 / 2

// polarRadii are the squared radii a mask, a compare or an exponent
// extraction could get wrong: the smallest and a mid-range radius the
// generator can produce, a power of two (f1 == 0.5 exactly), the pivot of
// archLog's one comparison with its two neighbours at three exponents (the
// mantissa the compare sees is the same at each), the largest value under 1,
// and the smallest normal number.
var polarRadii = func() []float64 {
	r := []float64{0x1p-104, 0x1p-52, 0.5, 1 - 0x1p-53, 0x1p-1022, 0.25, 0.75}
	for _, scale := range []float64{1, 0.5, 0.25} {
		for _, p := range []float64{math.Nextafter(sqrt2Half, 0), sqrt2Half, math.Nextafter(sqrt2Half, 1)} {
			r = append(r, p*scale)
		}
	}
	return r
}()

// polarPair draws an accepted attempt the way the generator does — u and v
// multiples of 2^-52 in [-1, 1) — scaled down by 2^-shift so that small radii
// (down to 2^-100 at shift 50) are as common as the caller likes.
func polarPair(r *parityRNG, shift int) (u, s float64) {
	for {
		u, v := math.Ldexp(r.next(), -shift), math.Ldexp(r.next(), -shift)
		if s = u*u + v*v; s > 0 && s < 1 {
			return u, s
		}
	}
}

func polarTwin(t *testing.T) {
	const canary = 0x5ca1ab1e
	r := parityRNG(24)
	for n := 0; n <= 70; n++ {
		for align := 0; align < 64; align++ {
			da, ua, sa := align&3, align>>2&3, align>>4
			dst, u, s := make([]float64, da+n+4)[da:], make([]float64, ua+n)[ua:], make([]float64, sa+n)[sa:]
			shift := 0
			if align%7 == 0 {
				shift = 50
			}
			for i := range s {
				u[i], s[i] = polarPair(&r, shift)
				if r.intn(4) == 0 {
					s[i] = polarRadii[r.intn(len(polarRadii))]
				}
			}
			for i := range dst {
				dst[i] = canary
			}
			PolarNormals(dst[:n], u, s)
			for i := range s {
				if want := polarRef(u[i], s[i]); math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("n=%d align=%d,%d,%d: dst[%d] = %x for u=%v s=%x, scalar expression %x",
						n, da, ua, sa, i, math.Float64bits(dst[i]), u[i], math.Float64bits(s[i]), math.Float64bits(want))
				}
			}
			for i, v := range dst[n:] {
				if v != canary {
					t.Fatalf("n=%d align=%d,%d,%d: dst[%d] written past the window", n, da, ua, sa, n+i)
				}
			}
		}
	}
}

func TestPolarNormalsTwin(t *testing.T) { eachTier(t, polarTwin) }

func TestPolarNormalsLengthMismatch(t *testing.T) {
	for _, lens := range [][3]int{{3, 4, 4}, {4, 3, 4}, {4, 4, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lengths %v: no panic", lens)
				}
			}()
			PolarNormals(make([]float64, lens[0]), make([]float64, lens[1]), make([]float64, lens[2]))
		}()
	}
}

// FuzzPolarTwin feeds one four-lane group through the kernel, on the tier
// the probe chose, against the scalar expression: a raw generator word for
// each u (mapped to [-1, 1) as rng.Float64 does) and the raw bits of each
// squared radius, which covers every normal s in (0, 1) — a superset of what
// an accepted attempt can produce. The seed corpus is polarRadii, so plain
// `go test` replays those cases.
func FuzzPolarTwin(f *testing.F) {
	for i := range polarRadii {
		w := func(k int) uint64 { return math.Float64bits(polarRadii[(i+k)%len(polarRadii)]) }
		f.Add(uint64(i)<<60, ^uint64(i), uint64(1)<<63, uint64(i)*0x9E3779B97F4A7C15, w(0), w(1), w(5), w(9))
	}
	f.Fuzz(func(t *testing.T, u0, u1, u2, u3, s0, s1, s2, s3 uint64) {
		var u, s, got [4]float64
		for i, w := range [4]uint64{u0, u1, u2, u3} {
			u[i] = 2*(float64(w>>11)/(1<<53)) - 1
		}
		for i, w := range [4]uint64{s0, s1, s2, s3} {
			if s[i] = math.Float64frombits(w); !(s[i] >= 0x1p-1022 && s[i] < 1) {
				t.Skip("outside PolarNormals' domain")
			}
		}
		PolarNormals(got[:], u[:], s[:])
		for i := range got {
			if want := polarRef(u[i], s[i]); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("lane %d: u=%v s=%x: %x, scalar expression %x", i, u[i], math.Float64bits(s[i]), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	})
}
