package tensor

import (
	"math"
	"testing"
)

// ExpInto against math.Exp, the function it replaces. eachTier runs it on the
// Go tier (where this checks the wrapper: tail, lengths, aliasing, nothing
// written outside the window) and on the AVX2 tier (where it checks the
// kernel on whichever of archExp's paths this host's math takes, and the
// hand-off of every group with a lane outside the kernel's domain).
// exp_amd64_test.go holds each path to a Go oracle of its own.

// expSpecials are the arguments a domain test, a rounding of k or an exponent
// field could get wrong: the domain's ends and their neighbours, archExp's
// overflow threshold and the arguments around it whose k is 1024, the
// smallest k whose 2^k is normal, subnormal and zero results, ties of
// x*Log2e at half-integers, zeros, the infinities, NaNs of both signs with
// payloads, and the extremes.
var expSpecials = []float64{
	-708, 709, math.Nextafter(-708, math.Inf(-1)), math.Nextafter(709, math.Inf(1)),
	7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, math.Inf(1)), 709.5, 709.436,
	-708.3964, -708.4, -709, -745.1332191019411, -745.14, -746, -1075,
	0.5 * math.Ln2, -0.5 * math.Ln2, 1.5 * math.Ln2, -1021.5 * math.Ln2, 1022.5 * math.Ln2,
	0, math.Copysign(0, -1), 1, -1, 5e-324, -5e-324, 1e-300, 0.1, -0.1,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(math.NaN(), -1),
	math.Float64frombits(0x7FF0000000000abc), math.Float64frombits(0xFFF4000000000def),
	math.MaxFloat64, -math.MaxFloat64, 1e10, -1e10,
}

// expArg draws a softmax-like argument (a logit minus its row's maximum), a
// value anywhere in and just past the kernel's domain, or a special.
func expArg(r *parityRNG) float64 {
	switch r.intn(8) {
	case 0, 1:
		return expSpecials[r.intn(len(expSpecials))]
	case 2, 3, 4:
		return -math.Abs(r.next() * 12)
	default:
		return r.next() * 760
	}
}

func TestExpIntoMatchesMathExp(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		const canary = 0x5ca1ab1e
		r := parityRNG(30)
		for n := 0; n <= 70; n++ {
			for align := 0; align < 16; align++ {
				da, sa := align&3, align>>2
				dst, src := make([]float64, da+n+4)[da:], make([]float64, sa+n)[sa:]
				for i := range src {
					src[i] = expArg(&r)
				}
				for i := range dst {
					dst[i] = canary
				}
				ExpInto(dst[:n], src)
				for i, x := range src {
					if want := math.Exp(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
						t.Fatalf("n=%d align=%d,%d: dst[%d] = %x for x=%v (%x), math.Exp %x",
							n, da, sa, i, math.Float64bits(dst[i]), x, math.Float64bits(x), math.Float64bits(want))
					}
				}
				for i, v := range dst[n:] {
					if v != canary {
						t.Fatalf("n=%d align=%d,%d: dst[%d] written past the window", n, da, sa, n+i)
					}
				}
				// In place, as the softmax tiles use it.
				want := append([]float64(nil), dst[:n]...)
				ExpInto(src, src)
				if i, ok := bitsEqual(src, want); !ok {
					t.Fatalf("n=%d align=%d,%d: in place, element %d = %x, want %x", n, da, sa, i, math.Float64bits(src[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}

func TestExpIntoLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on a length mismatch")
		}
	}()
	ExpInto(make([]float64, 3), make([]float64, 4))
}
