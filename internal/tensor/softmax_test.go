package tensor

import (
	"fmt"
	"math"
	"testing"
)

// SoftmaxRows against softmaxGo, the loss's scalar loop. eachTier runs it on
// the Go tier (where this checks the wrapper: shapes, the nil gradient,
// nothing written outside the windows) and on the AVX2 tier (where it checks
// the kernel on whichever of archExp's paths this host's math takes, the
// remainder group's spare lanes, and the hand-off of every group with an
// exp argument outside the kernel's domain). softmax_amd64_test.go holds
// each exp path to a Go oracle of its own.

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

// softmaxRegimes is how many regimes softmaxBlock draws from.
const softmaxRegimes = 4

// softmaxBlock fills a rows x cols block of logits: a trained model's spread
// (regime 0), a diverging one's, whose spreads pass exp's -708 in some rows
// (1), arguments from expArg, specials included (2), and logits 707-709.5
// below the rest (3), whose pass-2 argument can lie inside the domain while
// the pass-3 one, less log(sum) more, lies below it.
func softmaxBlock(r *parityRNG, rows, cols, regime int) []float64 {
	x := make([]float64, rows*cols)
	for i := range x {
		switch v := r.next() * 6; regime {
		case 1:
			if r.intn(8) == 0 {
				v *= 200
			}
			x[i] = v
		case 2:
			x[i] = expArg(r)
		case 3:
			x[i] = v / 6
			if r.intn(3) == 0 {
				x[i] = -708.25 + v/4.8
			}
		default:
			x[i] = v
		}
	}
	return x
}

// checkSoftmaxRows runs SoftmaxRows on x at window offsets off (logZ, d, x
// each start that many elements into a buffer with canaries around it) and
// holds logZ and d to softmaxGo bit for bit, NaN payloads included, with and
// without a gradient.
func checkSoftmaxRows(t *testing.T, what string, x []float64, cols, off int, scale float64) {
	t.Helper()
	const canary = 0x5ca1ab1e
	rows := len(x) / cols
	wantZ, wantD := make([]float64, rows), make([]float64, len(x))
	softmaxGo(wantZ, wantD, x, cols, scale)
	for _, withD := range []bool{true, false} {
		zBuf, dBuf, xBuf := make([]float64, off+rows+4), make([]float64, off+len(x)+4), make([]float64, off+len(x))
		for i := range zBuf {
			zBuf[i] = canary
		}
		for i := range dBuf {
			dBuf[i] = canary
		}
		copy(xBuf[off:], x)
		logZ, d := zBuf[off:off+rows], dBuf[off:off+len(x)]
		if !withD {
			d = nil
		}
		SoftmaxRows(logZ, d, xBuf[off:], cols, scale)
		if i, ok := bitsEqual(logZ, wantZ); !ok {
			t.Fatalf("%s (gradient %v): logZ[%d] = %x, scalar loop %x", what, withD, i, math.Float64bits(logZ[i]), math.Float64bits(wantZ[i]))
		}
		if withD {
			if i, ok := bitsEqual(d, wantD); !ok {
				t.Fatalf("%s: d[%d] = %x, scalar loop %x (logit %x)", what, i, math.Float64bits(d[i]), math.Float64bits(wantD[i]), math.Float64bits(x[i]))
			}
		}
		for i, v := range zBuf {
			if (i < off || i >= off+rows) && v != canary {
				t.Fatalf("%s (gradient %v): logZ buffer element %d written outside the window [%d, %d)", what, withD, i, off, off+rows)
			}
		}
		for i, v := range dBuf {
			if (!withD || i < off || i >= off+len(x)) && v != canary {
				t.Fatalf("%s (gradient %v): gradient buffer element %d written outside the window [%d, %d)", what, withD, i, off, off+len(x))
			}
		}
		if i, ok := bitsEqual(xBuf[off:], x); !ok {
			t.Fatalf("%s: logit %d changed", what, i)
		}
	}
}

func TestSoftmaxRowsMatchScalarLoop(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		r := parityRNG(30)
		for _, cols := range []int{1, 2, 3, 4, 5, 8, 9, 10, 16, 17, 33} {
			for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 33} {
				for regime := 0; regime < softmaxRegimes; regime++ {
					for off := 0; off < 4; off++ {
						x := softmaxBlock(&r, rows, cols, regime)
						checkSoftmaxRows(t, fmt.Sprintf("%dx%d regime %d off %d", rows, cols, regime, off), x, cols, off, 0.25)
					}
				}
			}
		}
	})
}

func TestSoftmaxRowsShapeMismatch(t *testing.T) {
	for _, c := range []struct {
		logZ, d, x, cols int
	}{{3, 8, 8, 4}, {2, -1, 8, 3}, {2, 6, 8, 4}, {0, -1, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: no panic on a shape mismatch", c)
				}
			}()
			var d []float64
			if c.d >= 0 {
				d = make([]float64, c.d)
			}
			SoftmaxRows(make([]float64, c.logZ), d, make([]float64, c.x), c.cols, 1)
		}()
	}
}

// FuzzSoftmaxTwin draws a block of 1-9 rows of 1-17 logits from the seed in
// a regime of softmaxBlock's, plants two raw float64 words at positions the
// seed picks, and holds SoftmaxRows to softmaxGo on both tiers.
func FuzzSoftmaxTwin(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(9), uint8(0), math.Float64bits(0), math.Float64bits(-3))
	f.Add(uint64(2), uint8(4), uint8(1), uint8(1), math.Float64bits(math.NaN()), math.Float64bits(-800))
	f.Add(uint64(3), uint8(2), uint8(16), uint8(2), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)))
	f.Add(uint64(4), uint8(8), uint8(2), uint8(0), uint64(0x7FF0000000000abc), math.Float64bits(math.Copysign(0, -1)))
	f.Add(uint64(5), uint8(0), uint8(4), uint8(1), math.Float64bits(-708), math.Float64bits(709))
	f.Add(uint64(6), uint8(3), uint8(9), uint8(3), math.Float64bits(0), math.Float64bits(-707.5))
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols, regime uint8, w0, w1 uint64) {
		r := parityRNG(seed)
		nr, nc := 1+int(rows)%9, 1+int(cols)%17
		x := softmaxBlock(&r, nr, nc, int(regime)%softmaxRegimes)
		x[r.intn(len(x))] = math.Float64frombits(w0)
		x[r.intn(len(x))] = math.Float64frombits(w1)
		eachTier(t, func(t *testing.T) {
			checkSoftmaxRows(t, fmt.Sprintf("%dx%d", nr, nc), x, nc, int(seed%3), 1/float64(nr))
		})
	})
}
