package tensor

import (
	"fmt"
	"math"
)

// The two dim-wide passes of top-k (internal/compress): the digit count,
// with error feedback's add fused into it, and the list of the coordinates
// at or above the k-th bucket. Each has an AVX2 kernel (topk_amd64.s) behind
// the package's one probe and the Go loop below, which is the kernel's
// fallback, finishes what the kernel leaves, and is what it is tested
// against.
//
// Every pass works on a coordinate's MAGNITUDE PATTERN: the IEEE-754 bit
// pattern of |v|, the word with its sign bit cleared. Under unsigned order
// those patterns order the magnitudes numerically, with every NaN above +Inf
// (the package comment of internal/compress states the order contract). The
// sign bit is clear on both sides of every comparison, so the kernels' signed
// 64-bit compares order them the same way.
//
// THE STORE BOUND. The list's kernel stores four indices at the cursor and
// advances it by the lanes kept. A store at cursor n writes entries n..n+3,
// so the kernel stores only while n <= len-4 of the list and hands the rest
// to its Go loop, which stores one entry at a time below that length:
// nothing is ever written past the list's length, whatever its capacity. So
// top-k's list is as long as what it lists, not as long as vec.

// DigitBits is the width of the first radix digit, a magnitude pattern's top
// 13 bits: the 11 exponent bits plus the top two mantissa bits,
// quarter-octave buckets.
const DigitBits = 13

const (
	absMask    = 1<<63 - 1      // clears the sign: the bit pattern of |v|
	digitShift = 63 - DigitBits // a magnitude pattern's first digit
	groupShift = 63 - 6         // the occupancy bit: 64 groups of 128 digits
)

// CountDigits adds one to hist[d] for the first digit d of every magnitude
// pattern in vec and returns the occupancy word: bit g is set when a digit in
// [128g, 128g+128) was counted.
func CountDigits(vec []float64, hist *[1 << DigitBits]uint32) uint64 {
	n, occ := countDigitsBulk(vec, hist)
	return occ | countDigitsGo(vec[n:], hist)
}

func countDigitsGo(vec []float64, hist *[1 << DigitBits]uint32) (occ uint64) {
	for _, v := range vec {
		b := math.Float64bits(v) & absMask
		hist[b>>digitShift]++
		occ |= 1 << (b >> groupShift & 63)
	}
	return occ
}

// AddCountDigits is Add(sum, vec, sum) and CountDigits(sum, hist) in one
// pass: sum[i] becomes vec[i] + sum[i], vec the first operand as in Add (so
// where two NaNs meet, vec's payload is the one kept), and the new sum's
// digits are counted. It is error feedback's resid += vec for top-k, which
// then selects from the sum. It panics unless sum and vec have one length.
func AddCountDigits(sum, vec []float64, hist *[1 << DigitBits]uint32) uint64 {
	if len(sum) != len(vec) {
		panic(fmt.Sprintf("tensor: AddCountDigits has %d sums for %d values", len(sum), len(vec)))
	}
	n, occ := addCountBulk(sum, vec, hist)
	return occ | addCountGo(sum[n:], vec[n:], hist)
}

func addCountGo(sum, vec []float64, hist *[1 << DigitBits]uint32) (occ uint64) {
	vec = vec[:len(sum)]
	for i, v := range vec {
		s := v + sum[i]
		sum[i] = s
		b := math.Float64bits(s) & absMask
		hist[b>>digitShift]++
		occ |= 1 << (b >> groupShift & 63)
	}
	return occ
}

// KeepFrom writes to at, in ascending order, the index of every coordinate
// whose first digit is digit or above, and returns how many. at must hold
// more entries than it receives, or as many as vec has: the Go loop stores
// every index at the cursor before it decides whether to keep it (the cursor
// never passes the index), and a store past len(at) panics. Indices must fit
// in 32 bits.
func KeepFrom(at []int32, vec []float64, digit uint64) int {
	n, done := keepFromBulk(at, vec, digit)
	return keepFromGo(at, n, vec[done:], done, digit<<digitShift)
}

// keepFromGo compacts vec after the n indices already kept, vec[i] as index
// base+i: a pattern b is kept when b-lo does not wrap, lo being the digit's
// smallest pattern (both are below 1<<63).
func keepFromGo(at []int32, n int, vec []float64, base int, lo uint64) int {
	for i, v := range vec {
		at[n] = int32(base + i)
		n += int((math.Float64bits(v)&absMask-lo)>>63) ^ 1
	}
	return n
}
