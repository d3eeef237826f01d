package tensor

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// The sentinels fill the entries past every array's length: a kernel that
// stores past len(idx) or len(keys) overwrites one.
const (
	keySentinel = 0x5e7e5e7e5e7e5e7e
	idxSentinel = 0x5e7e5e7e
)

var valSentinel = math.Float64frombits(keySentinel) // a normal, not a NaN

// topkTwin holds the top-k passes and Add, on whichever tier runs, to their
// Go loops over vec: the digit counts and occupancy word, a + b with NaN
// payloads in both operands (also in place into b), the fused add and count
// against Add and CountDigits, and the list from two digits taken from
// vec's own patterns (at the picked positions, so equal digits and ties are
// the common case, not luck): once into an array as short as KeepFrom
// allows, once with kSeed's slack past the count.
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
	// Fused with the count, in place, as error feedback's resid += vec is.
	fused := rotate(vec)
	hist, wantHist = [1 << DigitBits]uint32{}, [1 << DigitBits]uint32{}
	occ = AddCountDigits(fused, vec, &hist)
	wantOcc := countDigitsGo(want, &wantHist)
	if i, ok := bitsEqual(fused, want); !ok || occ != wantOcc || hist != wantHist {
		t.Fatalf("AddCountDigits(%x, %x): sum off at %d (ok %v), occupancy %#x against %#x, counts equal: %v",
			words(b), words(vec), i, ok, occ, wantOcc, hist == wantHist)
	}
	// In place, as the other schemes' error feedback does.
	Add(b, vec, b)
	if i, ok := bitsEqual(b, want); !ok {
		t.Fatalf("Add in place (%x)[%d] = %x, Go loop %x", words(vec), i, math.Float64bits(b[i]), math.Float64bits(want[i]))
	}
	if dim == 0 {
		return
	}

	digit := math.Float64bits(vec[int(pick)%dim]) & absMask >> digitShift
	keepTwin(t, vec, digit, 0)
	digit = math.Float64bits(vec[int(pick>>8)%dim]) & absMask >> digitShift
	keepTwin(t, vec, digit, int(kSeed)%8)
	// Digit 0 lists every coordinate.
	keepTwin(t, vec, 0, 0)
}

// keepTwin holds KeepFrom to its Go loop over vec at digit, and the Go loop
// to the digit comparison written out, into an array slack entries longer
// than the contract's minimum — one past the listed coordinates, or
// len(vec) — capped at len(vec) and followed by sentinels.
func keepTwin(t *testing.T, vec []float64, digit uint64, slack int) {
	t.Helper()
	var spec []int32
	for i, v := range vec {
		if math.Float64bits(v)&absMask>>digitShift >= digit {
			spec = append(spec, int32(i))
		}
	}
	want := make([]int32, len(vec))
	wantN := keepFromGo(want, 0, vec, 0, digit<<digitShift)
	if !slices.Equal(want[:wantN], spec) {
		t.Fatalf("keepFromGo(%x, digit %#x) = %v; the comparisons give %v", words(vec), digit, want[:wantN], spec)
	}
	short := min(wantN+1+slack, len(vec))
	at := filled[int32](short+5, idxSentinel)
	if n := KeepFrom(at[:short], vec, digit); n != wantN || !slices.Equal(at[:n], want[:n]) {
		t.Fatalf("KeepFrom(%x, digit %#x) into %d = %v, Go loop %v", words(vec), digit, short, at[:n], want[:wantN])
	}
	intactPast(t, "KeepFrom's list", at, short, idxSentinel)
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
// and the specials, at many picks of digit and slack.
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

// TestKeepDigitStoresNothingPastKeys runs keepTwin on both tiers with the
// list as short as KeepFrom allows, at dims 1-19 and 64-67 and every member
// count from none to all, with the members first, last and scattered, and
// with none, one, all or a random number of the other coordinates above the
// digit: so the list's length takes every residue mod 4, a whole vector of
// one digit is the heavy-tie case, and a list of every coordinate (no
// member below) is as long as vec. Four families: finite members, members
// that are all one magnitude (a bucket of exact ties), NaN members, and
// ±Inf members beside a signalling NaN of the same digit, each among
// coordinates of other digits that include NaN, ±Inf, zero and subnormals.
func TestKeepDigitStoresNothingPastKeys(t *testing.T) {
	nan, negNaN := math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF8000000000abc)
	sNaN, inf := math.Float64frombits(0x7FF4000000000001), math.Inf(1)
	families := []struct {
		name                   string
		members, above, others []float64
	}{
		{"finite", []float64{1, -1.25, 1.4999999999999998}, []float64{3, inf, nan}, []float64{0, -0.5, 5e-324}},
		{"ties", []float64{1, -1}, []float64{-3, nan, inf}, []float64{math.Copysign(0, -1), 0.5, 5e-324}},
		{"NaN", []float64{nan, negNaN}, nil, []float64{inf, -inf, sNaN, 1, math.Copysign(0, -1)}},
		{"Inf", []float64{inf, -inf, sNaN}, []float64{nan}, []float64{math.MaxFloat64, -2, 5e-324}},
	}
	var dims []int
	for d := 1; d <= 19; d++ {
		dims = append(dims, d)
	}
	dims = append(dims, 64, 65, 66, 67)
	eachTier(t, func(t *testing.T) {
		r := parityRNG(29)
		for _, f := range families {
			digit := math.Float64bits(f.members[0]) & absMask >> digitShift
			for _, v := range f.above {
				if math.Float64bits(v)&absMask>>digitShift <= digit {
					t.Fatalf("%s: %v is not above the members' digit", f.name, v)
				}
			}
			for _, v := range f.others {
				if math.Float64bits(v)&absMask>>digitShift >= digit {
					t.Fatalf("%s: %v is not below the members' digit", f.name, v)
				}
			}
			for _, dim := range dims {
				for members := 0; members <= dim; members++ {
					for place := 0; place < 3; place++ {
						member := pickPlaces(&r, dim, members, place)
						for aboveMode := 0; aboveMode < 4; aboveMode++ {
							if len(f.above) == 0 && aboveMode != 0 {
								break
							}
							vec := make([]float64, dim)
							above := 0
							for i := range vec {
								switch {
								case member[i]:
									vec[i] = f.members[r.intn(len(f.members))]
								case aboveMode == 1 && above == 0, aboveMode == 2,
									aboveMode == 3 && len(f.above) > 0 && r.intn(2) == 0:
									vec[i] = f.above[r.intn(len(f.above))]
									above++
								default:
									vec[i] = f.others[r.intn(len(f.others))]
								}
							}
							keepTwin(t, vec, digit, 0)
						}
					}
				}
			}
		}
	})
}

// pickPlaces marks n of dim places: the first n, the last n, or n at random.
func pickPlaces(r *parityRNG, dim, n, place int) []bool {
	member := make([]bool, dim)
	switch place {
	case 0:
		for i := 0; i < n; i++ {
			member[i] = true
		}
	case 1:
		for i := dim - n; i < dim; i++ {
			member[i] = true
		}
	default:
		for k := 0; k < n; {
			if i := r.intn(dim); !member[i] {
				member[i] = true
				k++
			}
		}
	}
	return member
}

// FuzzTopKTwin reads up to 67 raw float64 words, so NaN payloads, subnormals,
// exact ties and equal digits come straight from the fuzzer, and runs
// topkTwin on both tiers: the count, the fused add and count, and the list,
// each against its Go loop.
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
