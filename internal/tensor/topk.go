package tensor

import (
	"fmt"
	"math"
)

// The dim-wide passes of top-k's radix select and emission
// (internal/compress). Each has an AVX2 kernel (topk_amd64.s) behind the
// package's one probe and the Go loop below, which is the kernel's fallback,
// finishes what the kernel leaves, and is what it is tested against.
//
// Every pass works on a coordinate's MAGNITUDE PATTERN: the IEEE-754 bit
// pattern of |v|, the word with its sign bit cleared. Under unsigned order
// those patterns order the magnitudes numerically, with every NaN above +Inf
// (the package comment of internal/compress states the order contract). The
// sign bit is clear on both sides of every comparison, so the kernels' signed
// 64-bit compares order them the same way.
//
// THE STORE BOUND. The compaction kernels store four lanes at the cursor and
// advance it by the lanes kept. A store at cursor n writes entries n..n+3, so
// a kernel stores only while n <= len-4 of the array it fills and hands the
// rest to its Go loop, which stores one entry at a time below that length:
// nothing is ever written past the arrays' length, whatever their capacity.
// So a message is exactly k long, and top-k's keys are as long as the bucket
// KeepDigit keeps, not as long as vec.

// DigitBits is the width of the first radix digit, a magnitude pattern's top
// 12 bits: the 11 exponent bits plus the top mantissa bit, half-octave
// buckets.
const DigitBits = 12

const (
	absMask    = 1<<63 - 1      // clears the sign: the bit pattern of |v|
	digitShift = 63 - DigitBits // a magnitude pattern's first digit
	groupShift = digitShift + 6 // 64 digits per occupancy bit
)

// CountDigits adds one to hist[d] for the first digit d of every magnitude
// pattern in vec and returns the occupancy word: bit g is set when a digit in
// [64g, 64g+64) was counted.
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

// KeepDigit writes to keys, in vec's order, the magnitude pattern of every
// coordinate whose first digit is digit, and returns how many. keys must hold
// more entries than coordinates carry the digit, or as many as vec has: the
// Go loop stores every coordinate at the cursor before it decides whether to
// keep it (the cursor never passes the coordinate's index), and a store past
// len(keys) panics.
func KeepDigit(keys []uint64, vec []float64, digit uint64) int {
	n, done := keepDigitBulk(keys, vec, digit)
	return keepDigitGo(keys, n, vec[done:], digit)
}

// keepDigitGo compacts vec after the n keys already kept: an unconditional
// store at the cursor, which advances by 0 or 1.
func keepDigitGo(keys []uint64, n int, vec []float64, digit uint64) int {
	for _, v := range vec {
		b := math.Float64bits(v) & absMask
		keys[n] = b
		n += int(((b>>digitShift ^ digit) - 1) >> 63)
	}
	return n
}

// EmitAbove writes (i, vec[i]) to idx and vals for every coordinate whose
// magnitude pattern is above thresh, in ascending i, and returns how many. It
// panics unless idx and vals have one length, and unless fewer than that many
// coordinates are above thresh: the Go loop stores every coordinate at the
// cursor before it decides whether to keep it.
func EmitAbove(idx []int32, vals []float64, vec []float64, thresh uint64) int {
	if len(idx) != len(vals) {
		panic(fmt.Sprintf("tensor: EmitAbove has %d indices for %d values", len(idx), len(vals)))
	}
	n, done := emitAboveBulk(idx, vals, vec, thresh)
	return emitAboveGo(idx, vals, n, vec[done:], done, thresh)
}

// emitAboveGo emits after the n entries already emitted, vec[i] as index
// base+i.
func emitAboveGo(idx []int32, vals []float64, n int, vec []float64, base int, thresh uint64) int {
	for i, v := range vec {
		idx[n] = int32(base + i)
		vals[n] = v
		n += int((thresh - math.Float64bits(v)&absMask) >> 63)
	}
	return n
}

// FillTies fills idx[n:] and vals[n:] with (i, vec[i]) for the coordinates
// whose magnitude pattern equals thresh, lowest index first, and stops when
// the arrays are full. It panics unless idx and vals have one length, and
// unless at least len(idx)-n such coordinates exist.
func FillTies(idx []int32, vals []float64, n int, vec []float64, thresh uint64) {
	if len(idx) != len(vals) {
		panic(fmt.Sprintf("tensor: FillTies has %d indices for %d values", len(idx), len(vals)))
	}
	n, done := fillTiesBulk(idx, vals, n, vec, thresh)
	fillTiesGo(idx, vals, n, vec, done, thresh)
}

func fillTiesGo(idx []int32, vals []float64, n int, vec []float64, i int, thresh uint64) {
	for ; n < len(idx); i++ {
		v := vec[i]
		idx[n] = int32(i)
		vals[n] = v
		n += int(((math.Float64bits(v)&absMask ^ thresh) - 1) >> 63)
	}
}
