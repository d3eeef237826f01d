package tensor

import (
	"fmt"
	"math"
)

// The QSGD wire loops (internal/compress): stochastic rounding onto signed
// levels, its inverse, and the inverse accumulated. Each has an AVX2 kernel
// (quant_amd64.s) behind the package's one probe and the Go loop below, which
// is the kernel's fallback, finishes the len % 4 elements a kernel leaves,
// and is what the kernel is tested against bit for bit.
//
// The kernel contract. A lane is ONE coordinate and lanes never mix, so a
// packed instruction performs the scalar loop's operation per coordinate.
// Every step is an exactly-rounded IEEE operation taken in the scalar order:
// |v| / norm is rounded and THEN multiplied by s — never |v| * (s / norm) —
// and norm * level is rounded and then divided by s; nothing is fused. The
// comparison u < frac is false on NaN, like Go's. A level becomes an int16 by
// a TRUNCATING conversion to int32 whose low word is kept (VCVTTPD2DQ, then a
// byte shuffle), which is what int16(l) compiles to; a saturating pack would
// turn the integer-indefinite of a NaN level into -32768 where Go reads 0.

// QuantizeLevels writes QSGD's stochastic rounding of vec onto s levels of
// [0, norm]: with a = |vec[i]| / norm * s,
//
//	levels[i] = sign(vec[i]) * (floor(a) + 1 if u[i] < a - floor(a), else floor(a))
//
// u holds one uniform draw per coordinate. It panics unless the three slices
// have one length.
//
// Domain: every a is in [0, 2^31) or NaN — norm is a norm, not negative —
// where OR-ing v's sign bit onto the level is the scalar loop's negation and
// the kernel's conversion is int16(l). A caller passing vec's own L2 norm and
// s <= 255 is inside it: |v| / norm <= 1 up to rounding for every coordinate
// (a square that underflowed out of the norm belongs to a coordinate smaller
// than each one that did not), and a NaN or infinite coordinate makes the
// norm NaN or Inf and a either 0 or NaN. NaN levels (from a NaN or Inf
// coordinate, or a NaN norm) are written as 0, and the sign of a zero is
// dropped.
func QuantizeLevels(levels []int16, vec, u []float64, norm, s float64) {
	if len(levels) != len(vec) || len(u) != len(vec) {
		panic(fmt.Sprintf("tensor: QuantizeLevels length mismatch: %d levels, %d values, %d draws", len(levels), len(vec), len(u)))
	}
	n := quantizeBulk(levels, vec, u, norm, s)
	quantizeGo(levels[n:], vec[n:], u[n:], norm, s)
}

func quantizeGo(levels []int16, vec, u []float64, norm, s float64) {
	levels, u = levels[:len(vec)], u[:len(vec)]
	for i, v := range vec {
		a := math.Abs(v) / norm * s
		l := math.Floor(a)
		if u[i] < a-l {
			l++
		}
		lv := int16(l)
		if v < 0 {
			lv = -lv
		}
		levels[i] = lv
	}
}

// DequantizeLevels overwrites dst with the values the levels stand for,
// dst[i] = norm * levels[i] / s. It panics unless len(dst) == len(levels).
func DequantizeLevels(dst []float64, levels []int16, norm, s float64) {
	if len(dst) != len(levels) {
		panic(fmt.Sprintf("tensor: DequantizeLevels length mismatch: %d values, %d levels", len(dst), len(levels)))
	}
	n := dequantizeBulk(dst, levels, norm, s)
	dequantizeGo(dst[n:], levels[n:], norm, s)
}

func dequantizeGo(dst []float64, levels []int16, norm, s float64) {
	dst = dst[:len(levels)]
	for i, lv := range levels {
		dst[i] = norm * float64(lv) / s
	}
}

// AccumulateLevels is DequantizeLevels added to dst instead of stored:
// dst[i] += norm * levels[i] / s.
func AccumulateLevels(dst []float64, levels []int16, norm, s float64) {
	if len(dst) != len(levels) {
		panic(fmt.Sprintf("tensor: AccumulateLevels length mismatch: %d values, %d levels", len(dst), len(levels)))
	}
	n := accumulateBulk(dst, levels, norm, s)
	accumulateGo(dst[n:], levels[n:], norm, s)
}

func accumulateGo(dst []float64, levels []int16, norm, s float64) {
	dst = dst[:len(levels)]
	for i, lv := range levels {
		dst[i] += norm * float64(lv) / s
	}
}
