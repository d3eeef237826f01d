package tensor

import (
	"fmt"
	"math"
)

// The second half of a polar (Marsaglia) normal draw, for a tile of accepted
// attempts at a time: rng.(*Rand).FillNormFloat64 produces the pairs, this
// finishes them. Like the QSGD loops in quant.go it is a Go loop — the
// fallback, the finisher of the len % 4 elements a kernel leaves, and the
// oracle — with an AVX2 twin (polar_amd64.s) behind the package's one probe.
//
// The kernel contract. A lane is one draw and lanes never mix. math.Log on
// amd64 is an assembly routine of its own (archLog, GOROOT
// src/math/log_amd64.s: Frexp by bit masks, one compare-and-select against
// Sqrt2/2, the degree-14 minimax polynomial in s = f/(2+f) and the
// Ln2Hi/Ln2Lo recombination, with no branch once its special-case exits are
// passed), and the kernel mirrors it instruction for instruction, packed
// where archLog is scalar, with the same constants (polarConst). The
// multiply by -2, the divide by s, the square root and the multiply by u
// follow in the scalar expression's order. Every step is an exactly-rounded
// IEEE operation and nothing is fused, so the four lanes hold the bits four
// scalar evaluations would. The kernel exists only on amd64, where math.Log
// IS archLog; everywhere else the Go loop runs alone and math.Log is whatever
// that platform's is — the same on both sides of every comparison.

// PolarNormals finishes polar-method normal draws:
//
//	dst[i] = u[i] * math.Sqrt(-2*math.Log(s[i])/s[i])
//
// where s[i] = u[i]^2 + v[i]^2 is an ACCEPTED attempt's squared radius. It
// panics unless the three slices have one length.
//
// Domain: 0 < s[i] < 1 and s[i] a normal number. The generator's u and v are
// multiples of 2^-52, so an accepted s is at least 2^-104 and always is.
// archLog's exits for zero, negative, infinite and NaN arguments are
// unreachable there and the kernel does not mirror them, nor its handling of
// subnormals (whose exponent field is not their exponent); outside the
// domain the two tiers may differ.
func PolarNormals(dst, u, s []float64) {
	if len(dst) != len(s) || len(u) != len(s) {
		panic(fmt.Sprintf("tensor: PolarNormals length mismatch: %d outputs, %d u, %d s", len(dst), len(u), len(s)))
	}
	n := polarBulk(dst, u, s)
	polarGo(dst[n:], u[n:], s[n:])
}

func polarGo(dst, u, s []float64) {
	dst, u = dst[:len(s)], u[:len(s)]
	for i, si := range s {
		dst[i] = u[i] * math.Sqrt(-2*math.Log(si)/si)
	}
}
