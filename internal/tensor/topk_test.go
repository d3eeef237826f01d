package tensor

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// The sentinels fill the entries past every array's length: a kernel that
// stores past len(idx) (or past len(vec) in keys) overwrites one.
const (
	keySentinel = 0x5e7e5e7e5e7e5e7e
	idxSentinel = 0x5e7e5e7e
)

var valSentinel = math.Float64frombits(keySentinel) // a normal, not a NaN

// topkTwin holds the four top-k passes and Add, on whichever tier runs, to
// their Go loops over vec: the digit counts and occupancy word, the kept keys
// of one digit, the (index, value) pairs above thresh, the tie fill that
// stops at k = above + 1 + kSeed%ties, and a + b with NaN payloads in both
// operands. digit and thresh come from vec's own patterns (at the picked
// positions), so equal digits and ties are the common case, not luck.
func topkTwin(t *testing.T, vec []float64, pick uint16, kSeed uint8) {
	t.Helper()
	dim := len(vec)

	var hist, wantHist [1 << DigitBits]uint32
	occ := CountDigits(vec, &hist)
	if wantOcc := countDigitsGo(vec, &wantHist); occ != wantOcc || hist != wantHist {
		t.Fatalf("CountDigits(%x): occupancy %#x, Go loop %#x; counts equal: %v", words(vec), occ, wantOcc, hist == wantHist)
	}

	b := rotate(vec)
	sum, want := make([]float64, dim), make([]float64, dim)
	Add(sum, vec, b)
	addGo(want, vec, b)
	if i, ok := bitsEqual(sum, want); !ok {
		t.Fatalf("Add(%x, %x)[%d] = %x, Go loop %x", words(vec), words(b), i, math.Float64bits(sum[i]), math.Float64bits(want[i]))
	}
	if dim == 0 {
		return
	}

	digit := math.Float64bits(vec[int(pick)%dim]) & absMask >> digitShift
	keys := filled[uint64](dim+5, keySentinel)
	wantKeys := make([]uint64, dim)
	n := KeepDigit(keys[:dim], vec, digit)
	if wantN := keepDigitGo(wantKeys, 0, vec, digit); n != wantN || !slices.Equal(keys[:n], wantKeys[:n]) {
		t.Fatalf("KeepDigit(%x, digit %#x) = %x, Go loop %x", words(vec), digit, keys[:n], wantKeys[:wantN])
	}
	intactPast(t, "KeepDigit's keys", keys, dim, keySentinel)

	thresh := math.Float64bits(vec[int(pick>>8)%dim]) & absMask
	above, ties := 0, 0
	for _, v := range vec {
		switch p := math.Float64bits(v) & absMask; {
		case p > thresh:
			above++
		case p == thresh:
			ties++
		}
	}
	k := above + 1 + int(kSeed)%ties
	idx, vals := filled[int32](k+5, idxSentinel), filled(k+5, valSentinel)
	wantIdx, wantVals := make([]int32, k), make([]float64, k)
	n = EmitAbove(idx[:k], vals[:k], vec, thresh)
	if wantN := emitAboveGo(wantIdx, wantVals, 0, vec, 0, thresh); n != wantN || n != above {
		t.Fatalf("EmitAbove(%x, %#x) emitted %d, Go loop %d, above %d", words(vec), thresh, n, wantN, above)
	}
	FillTies(idx[:k], vals[:k], n, vec, thresh)
	fillTiesGo(wantIdx, wantVals, n, vec, 0, thresh)
	if i, ok := bitsEqual(vals[:k], wantVals); !ok || !slices.Equal(idx[:k], wantIdx) {
		t.Fatalf("EmitAbove+FillTies(%x, %#x, k=%d): pairs %v %x, Go loops %v %x (first value off at %d)",
			words(vec), thresh, k, idx[:k], words(vals[:k]), wantIdx, words(wantVals), i)
	}
	intactPast(t, "the emitted indices", idx, k, idxSentinel)
	intactPast(t, "the emitted values", vals, k, valSentinel)
}

// filled returns n copies of s.
func filled[T int | int32 | uint64 | float64](n int, s T) []T {
	w := make([]T, n)
	for i := range w {
		w[i] = s
	}
	return w
}

// intactPast fails unless every entry of whole from index n on still holds
// the sentinel s.
func intactPast[T int | int32 | uint64 | float64](t *testing.T, what string, whole []T, n int, s T) {
	t.Helper()
	for i := n; i < len(whole); i++ {
		if whole[i] != s {
			t.Fatalf("%s: entry %d of %d written, past the length %d", what, i, len(whole), n)
		}
	}
}

func words(v []float64) []uint64 {
	w := make([]uint64, len(v))
	for i, x := range v {
		w[i] = math.Float64bits(x)
	}
	return w
}

// rotate returns v moved left by one place: NaNs of v meet NaNs in a + b.
func rotate(v []float64) []float64 {
	if len(v) == 0 {
		return nil
	}
	return append(append([]float64(nil), v[1:]...), v[0])
}

// topkSpecials are the patterns the passes have to order: both zeros, the
// subnormal edge, the infinities, NaN payloads of both signs, and values on
// either side of a half-octave digit boundary.
var topkSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF4000000000abc),
	1, -1, 1.5, -1.4999999999999998, 0.75, math.MaxFloat64,
}

// TestTopKKernelsMatchGoLoops runs topkTwin on both tiers at every length
// 0-67 and the served 650 and 16 400, over Gaussian-like values, heavy ties
// and the specials, at many picks of digit, threshold and k.
func TestTopKKernelsMatchGoLoops(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		r := parityRNG(17)
		dims := []int{650, 16400}
		for d := 0; d <= 67; d++ {
			dims = append(dims, d)
		}
		for _, dim := range dims {
			for family := 0; family < 3; family++ {
				vec := make([]float64, dim)
				for i := range vec {
					switch family {
					case 0:
						vec[i] = r.next() * math.Exp(3*r.next())
					case 1:
						vec[i] = float64(int(4*r.next())) / 2
					default:
						vec[i] = topkSpecials[r.intn(len(topkSpecials))]
					}
				}
				for rep := 0; rep < 6; rep++ {
					topkTwin(t, vec, uint16(r.intn(1<<16)), uint8(r.intn(1<<8)))
				}
			}
		}
	})
}

// FuzzTopKTwin reads up to 67 raw float64 words, so NaN payloads, subnormals,
// exact ties and equal digits come straight from the fuzzer, and runs
// topkTwin on both tiers.
func FuzzTopKTwin(f *testing.F) {
	var seed []byte
	for _, v := range topkSpecials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, uint16(0x0305), uint8(1))
	f.Add(seed[:24], uint16(0x0102), uint8(0))
	var ties []byte
	for i := 0; i < 67; i++ {
		ties = binary.LittleEndian.AppendUint64(ties, math.Float64bits(float64(i%3)-1))
	}
	f.Add(ties, uint16(0x4000), uint8(200))
	f.Add(ties[:8*9], uint16(0x0001), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, pick uint16, kSeed uint8) {
		vec := make([]float64, min(len(raw)/8, 67))
		for i := range vec {
			vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		eachTier(t, func(t *testing.T) { topkTwin(t, vec, pick, kSeed) })
	})
}
