package tensor

import (
	"math"
	"testing"
)

// The QSGD kernels against the Go loops they are twins of. eachTier runs the
// exported entry points on the Go tier (where this checks the wrappers: tails,
// lengths, nothing written outside the window) and on the AVX2 tier (where it
// checks every instruction), always against quantizeGo / dequantizeGo /
// accumulateGo called directly.

// quantSpecials are the coordinates whose handling a packed compare, a sign
// transfer or a conversion could get wrong.
var quantSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF8000000000001), // NaN, both signs
	math.Float64frombits(0x7FF0000000000abc), math.Float64frombits(0xFFF4000000000def),
	5e-324, -5e-324, 1e-310, -1e-310, 2.5e-308, -2.5e-308, 1e300, -1e300,
	math.Nextafter(1<<31, 0), -math.Nextafter(1<<31, 0), 3, -2,
}

// quantDraws are the uniform draws at the ends of [0, 1), and one inside: 0
// rounds up on any non-zero fraction and never on a zero one, 1 - 2^-53
// rounds up never.
var quantDraws = []float64{0, 0x1p-53, 1 - 0x1p-53, 0.5}

const levelCanary = int16(0x5ca1)

// quantNorms are norms other than the vector's own: small and huge ones (finite
// lanes beside NaN ones, levels far past s), and those of a diverged vector.
var quantNorms = []float64{1, 1e-9, 7e-311, 1e300, math.NaN(), -math.NaN(), math.Inf(1), 0}

func (r *parityRNG) intn(n int) int { return int((r.next()+1)/2*float64(n)) % n }

func wordsOf(vec []float64) []uint64 {
	w := make([]uint64, len(vec))
	for i, v := range vec {
		w[i] = math.Float64bits(v)
	}
	return w
}

func l2norm(vec []float64) float64 {
	sum := 0.0
	for _, v := range vec {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// quantInput builds one call's operands in one of five regimes: a finite
// vector under its own norm (what compress passes), planted specials under
// their own norm (NaN or Inf whenever one of those is planted), planted
// specials under an arbitrary small or huge norm (finite lanes beside NaN
// ones, levels far past s), whole levels under norm 1 (every fraction exactly
// 0), and magnitudes just under 2^31 / s under norm 1.
func quantInput(r *parityRNG, regime int, vec, u []float64, s float64) (norm float64) {
	for i := range vec {
		vec[i] = r.next() * 3
		u[i] = (r.next() + 1) / 2
		if r.intn(3) == 0 {
			u[i] = quantDraws[r.intn(len(quantDraws))]
		}
	}
	switch regime {
	case 0:
		return l2norm(vec)
	case 1, 2:
		for i := range vec {
			if r.intn(3) == 0 {
				vec[i] = quantSpecials[r.intn(len(quantSpecials))]
			}
		}
		if regime == 1 {
			return l2norm(vec)
		}
		return quantNorms[r.intn(len(quantNorms))]
	case 3:
		for i := range vec {
			vec[i] = float64(r.intn(7) - 3)
		}
		return 1
	default:
		for i := range vec {
			vec[i] = math.Copysign(math.Nextafter(1<<31, 0)/s, r.next())
			if r.intn(2) == 0 {
				vec[i] = math.Copysign((1<<31-1)/s, r.next())
			}
		}
		return 1
	}
}

func TestQuantizeLevelsMatchesGoLoop(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		r := parityRNG(22)
		for n := 0; n <= 70; n++ {
			for b := 1; b <= 8; b++ {
				s := float64(int(1)<<b - 1)
				for off := 0; off < 16; off++ {
					offV, offL := off&3, off>>2
					for regime := 0; regime < 5; regime++ {
						vec, _ := guarded(n, offV, func() float64 { return 0 })
						u, _ := guarded(n, (offV+offL)&3, func() float64 { return 0 })
						norm := quantInput(&r, regime, vec, u, s)

						got := make([]int16, offL+n+5)
						for i := range got {
							got[i] = levelCanary
						}
						want := append([]int16(nil), got...)
						QuantizeLevels(got[offL:offL+n:offL+n], vec, u, norm, s)
						quantizeGo(want[offL:offL+n], vec, u, norm, s)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("n=%d s=%v offsets %d/%d regime %d norm %v: levels buffer [%d] = %d, Go loop leaves %d (window starts at %d; vec %x)",
									n, s, offV, offL, regime, norm, i, got[i], want[i], offL, wordsOf(vec))
							}
						}
					}
				}
			}
		}
	})
}

// dequantNorms are the norms a message can carry: of a finite vector, of an
// all-zero one, of a diverged one.
var dequantNorms = []float64{1, 3.7, 0, 1e-310, 1e300, math.Inf(1), math.NaN(), -math.NaN()}

func TestDequantizeKernelsMatchGoLoops(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		r := parityRNG(23)
		pick := func() float64 { return quantSpecials[r.intn(len(quantSpecials))] }
		for n := 0; n <= 70; n++ {
			for b := 1; b <= 8; b++ {
				s := float64(int(1)<<b - 1)
				for off := 0; off < 16; off++ {
					offD, offL := off&3, off>>2
					levels := make([]int16, offL+n)[offL:]
					for i := range levels {
						levels[i] = int16(r.intn(513) - 256)
						if r.intn(8) == 0 {
							levels[i] = []int16{math.MinInt16, math.MaxInt16, 0}[r.intn(3)]
						}
					}
					norm := dequantNorms[r.intn(len(dequantNorms))]
					if r.intn(2) == 0 {
						norm = (r.next() + 1.5) * 4
					}

					got, gotWhole := guarded(n, offD, pick)
					wantWhole := append([]float64(nil), gotWhole...)
					want := wantWhole[offD : offD+n]

					AccumulateLevels(got, levels, norm, s)
					accumulateGo(want, levels, norm, s)
					for i := range wantWhole {
						g, w := gotWhole[i], wantWhole[i]
						// NaN + NaN keeps one operand's payload, and which one
						// is the compiler's choice of ADDSD operands.
						if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
							t.Fatalf("AccumulateLevels n=%d s=%v offsets %d/%d norm %v: buffer element %d = %x, Go loop leaves %x",
								n, s, offD, offL, norm, i, math.Float64bits(g), math.Float64bits(w))
						}
					}

					copy(wantWhole, gotWhole)
					DequantizeLevels(got, levels, norm, s)
					dequantizeGo(want, levels, norm, s)
					if i, ok := bitsEqual(gotWhole, wantWhole); !ok {
						t.Fatalf("DequantizeLevels n=%d s=%v offsets %d/%d norm %v: buffer element %d = %x, Go loop leaves %x",
							n, s, offD, offL, norm, i, math.Float64bits(gotWhole[i]), math.Float64bits(wantWhole[i]))
					}
				}
			}
		}
	})
}

func TestQuantHelpersPanicOnMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"QuantizeLevels/levels": func() { QuantizeLevels(make([]int16, 3), make([]float64, 4), make([]float64, 4), 1, 1) },
		"QuantizeLevels/draws":  func() { QuantizeLevels(make([]int16, 4), make([]float64, 4), make([]float64, 5), 1, 1) },
		"DequantizeLevels":      func() { DequantizeLevels(make([]float64, 4), make([]int16, 8), 1, 1) },
		"AccumulateLevels":      func() { AccumulateLevels(make([]float64, 8), make([]int16, 4), 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on a length mismatch", name)
				}
			}()
			f()
		}()
	}
}

// FuzzQuantizeTwin feeds raw float64 words through one four-lane group of
// each kernel, on the tier the probe chose, against the Go loops. The seed
// corpus is the table above, so plain `go test` replays those cases.
func FuzzQuantizeTwin(f *testing.F) {
	sp := quantSpecials
	for i := range sp {
		w := func(k int) uint64 { return math.Float64bits(sp[(i+k)%len(sp)]) }
		for j, norm := range quantNorms {
			f.Add(w(0), w(j+1), w(2*j+2), w(3*j+3), math.Float64bits(norm), math.Float64bits(quantDraws[(i+j)%len(quantDraws)]), uint8(i+j))
		}
	}
	f.Add(math.Float64bits(0.3), math.Float64bits(-0.4), math.Float64bits(0.5), math.Float64bits(-0.7),
		math.Float64bits(l2norm([]float64{0.3, -0.4, 0.5, -0.7})), math.Float64bits(0.25), uint8(3))
	f.Fuzz(func(t *testing.T, v0, v1, v2, v3, normBits, uBits uint64, b uint8) {
		s := float64(int(1)<<(b%8+1) - 1)
		norm, draw := math.Float64frombits(normBits), math.Float64frombits(uBits)
		vec := []float64{math.Float64frombits(v0), math.Float64frombits(v1), math.Float64frombits(v2), math.Float64frombits(v3)}
		for _, v := range vec {
			if a := math.Abs(v) / norm * s; a < 0 || a >= 1<<31 {
				t.Skip("outside QuantizeLevels' domain")
			}
		}
		u := []float64{draw, draw, draw, draw}
		var got, want [4]int16
		QuantizeLevels(got[:], vec, u, norm, s)
		quantizeGo(want[:], vec, u, norm, s)
		if got != want {
			t.Fatalf("QuantizeLevels(%x, u=%v, norm=%v, s=%v) = %v, Go loop %v", []uint64{v0, v1, v2, v3}, draw, norm, s, got, want)
		}
		var dGot, dWant [4]float64
		DequantizeLevels(dGot[:], got[:], norm, s)
		dequantizeGo(dWant[:], want[:], norm, s)
		if i, ok := bitsEqual(dGot[:], dWant[:]); !ok {
			t.Fatalf("DequantizeLevels(%v, norm=%v, s=%v)[%d] = %x, Go loop %x", got, norm, s, i, math.Float64bits(dGot[i]), math.Float64bits(dWant[i]))
		}
		// Accumulated onto finite values: a NaN in both operands would leave
		// the payload to the compiler's operand order.
		dGot, dWant = [4]float64{1, -2, 0, 1e300}, [4]float64{1, -2, 0, 1e300}
		AccumulateLevels(dGot[:], got[:], norm, s)
		accumulateGo(dWant[:], want[:], norm, s)
		if i, ok := bitsEqual(dGot[:], dWant[:]); !ok {
			t.Fatalf("AccumulateLevels(%v, norm=%v, s=%v)[%d] = %x, Go loop %x", got, norm, s, i, math.Float64bits(dGot[i]), math.Float64bits(dWant[i]))
		}
	})
}
