package tensor

import (
	"math"
	"testing"
)

// Both kernel tiers in one `go test`: every parity suite runs on the Go loops
// and, where the probe allows it, on the AVX2 kernels, by flipping the
// package's one switch; the kernels that have no naive reference of their own
// (the axpy panel, the ReLU masks) are held to their Go bodies directly.

// eachTier runs f as subtest "go" and, on a host whose probe said yes, as
// subtest "avx2". The switch never goes on where the probe left it off.
func eachTier(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	probed := useAVX2
	defer func() { useAVX2 = probed }()
	useAVX2 = false
	t.Run("go", f)
	if !probed {
		t.Log("assembly half skipped: no AVX2 tier in this build or on this CPU/OS")
		return
	}
	useAVX2 = true
	t.Run("avx2", f)
}

func TestGemmParity(t *testing.T)                { eachTier(t, gemmParity) }
func TestGemmTAParity(t *testing.T)              { eachTier(t, gemmTAParity) }
func TestGemmTBParity(t *testing.T)              { eachTier(t, gemmTBParity) }
func TestGemmTBEdgeParity(t *testing.T)          { eachTier(t, gemmTBEdgeParity) }
func TestGemmParityAllZeroRows(t *testing.T)     { eachTier(t, gemmParityAllZeroRows) }
func TestGemmParityDenseAlphaOne(t *testing.T)   { eachTier(t, gemmParityDenseAlphaOne) }
func TestParallelGemmRace(t *testing.T)          { eachTier(t, parallelGemmRace) }
func TestKernelParityZeroLaden(t *testing.T)     { eachTier(t, kernelParityZeroLaden) }
func TestKernelParityNonFinite(t *testing.T)     { eachTier(t, kernelParityNonFinite) }
func TestKernelParityRemainderGrid(t *testing.T) { eachTier(t, kernelParityRemainderGrid) }

// TestKernelsReportsTheSwitch: the probe's answer is observable, and it is
// the switch's.
func TestKernelsReportsTheSwitch(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		if want := map[bool]string{false: "go", true: "avx2"}[useAVX2]; Kernels() != want {
			t.Fatalf("Kernels() = %q with useAVX2 = %v, want %q", Kernels(), useAVX2, want)
		}
	})
	t.Logf("this process runs the %s kernels", Kernels())
}

// kernelParityRemainderGrid walks every remainder the tiles leave: 1-9 rows
// (4-row tiles, the 2-row entry, the aliased single row), 1-17 columns (no
// block, one, two, and every width of Go tail), k around the four-k block,
// the stem convs' 9, the trunk convs' 72 and kcBlock, with the epilogues that
// land in C directly, scale it, and go through the stack tile.
func kernelParityRemainderGrid(t *testing.T) {
	r := parityRNG(13)
	for _, kc := range kernelCases {
		for m := 1; m <= 9; m++ {
			for n := 1; n <= 17; n++ {
				for _, k := range []int{1, 2, 3, 4, 5, 8, 9, 63, 64, 65, 72, 130} {
					ar, ac := kc.aDims(m, k)
					br, bc := kc.bDims(k, n)
					a, b := parityMatrix(&r, ar, ac), parityMatrix(&r, br, bc)
					for _, ab := range [][2]float64{{1, 0}, {1, 1}, {0.5, 0}, {-2, 0.75}} {
						cGot := parityMatrix(&r, m, n)
						cWant := cloneMatrix(cGot)
						kc.blocked(ab[0], a, b, ab[1], cGot)
						kc.naive(ab[0], a, b, ab[1], cWant)
						if i, ok := bitsEqual(cGot.Data, cWant.Data); !ok {
							t.Fatalf("%s m=%d n=%d k=%d alpha=%v beta=%v: element %d = %x want %x",
								kc.name, m, n, k, ab[0], ab[1], i,
								math.Float64bits(cGot.Data[i]), math.Float64bits(cWant.Data[i]))
						}
					}
				}
			}
		}
	}
}

// maskSpecials are the bit patterns the integer masks have to get right.
var maskSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF8000000000001), // quiet NaN, both signs
	math.Float64frombits(0x7FF0000000000abc), math.Float64frombits(0xFFF4000000000def), // signalling payloads
	5e-324, -5e-324, 2.5e-308, -2.5e-308, math.MaxFloat64, -math.MaxFloat64,
}

// guarded returns a length-n window at the given offset into a fresh buffer
// filled from pick, and the buffer, whose elements outside the window the
// caller checks afterwards.
func guarded(n, offset int, pick func() float64) (window, whole []float64) {
	whole = make([]float64, offset+n+5)
	for i := range whole {
		whole[i] = pick()
	}
	return whole[offset : offset+n : offset+n], whole
}

// axpyPanelCheck computes C rows [lo, hi) of one axpy-form product through
// gemmPanel and through gemmPanelGo, and holds the two NaN for NaN and
// otherwise bit for bit — over all of C and sentinels past its last row, so a
// store past any row of the panel shows (a row's neighbour is the next row,
// or a sentinel). The coefficients of the rows outside the panel are NaN, so
// a list that read them would poison its row, and NaNs past B's last row
// catch a read beyond it. ta reads A transposed (GemmTA's strides), as
// stored otherwise (Gemm's). Coefficients are zeroFrac exact zeros of
// either sign and otherwise regular values with infinities, NaNs and the
// products that underflow to zero planted.
func axpyPanelCheck(t *testing.T, r *parityRNG, ta bool, m, k, n, lo, hi int, alpha, zeroFrac float64) {
	t.Helper()
	const sentinel = 0x5ca1ab1e
	planted := []float64{math.Inf(1), math.Inf(-1), nanA, 5e-324, -5e-324, 2.5e-308}
	iStride, kStride := k, 1
	if ta {
		iStride, kStride = 1, m
	}
	a := NewMatrix(m, k)
	if ta {
		a = NewMatrix(k, m)
	}
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			v := &a.Data[i*iStride+kk*kStride]
			switch u := (r.next() + 1) / 2; {
			case i < lo || i >= hi:
				*v = math.NaN()
			case u < zeroFrac:
				*v = math.Copysign(0, r.next())
			case r.intn(10) == 0:
				*v = planted[r.intn(len(planted))]
			default:
				*v = r.next() * 3
			}
		}
	}
	bBuf := make([]float64, k*n+8)
	for i := range bBuf {
		bBuf[i] = nanB
	}
	b := &Matrix{Rows: k, Cols: n, Data: bBuf[:k*n]}
	fillParity(r, b.Data)
	plantEdgeSpecials(r, b.Data, nanB)
	got := make([]float64, m*n+8)
	for i := range got {
		got[i] = sentinel
	}
	fillParity(r, got[:m*n])
	want := append([]float64(nil), got...)
	gemmPanel(alpha, a, b, &Matrix{Rows: m, Cols: n, Data: got[:m*n]}, lo, hi, iStride, kStride)
	gemmPanelGo(alpha, a, b, &Matrix{Rows: m, Cols: n, Data: want[:m*n]}, lo, hi, iStride, kStride)
	if i, ok := sameFloats(got, want); !ok {
		t.Fatalf("ta=%v m=%d k=%d n=%d rows [%d, %d) alpha=%v zeros=%v: C buffer element %d (row %d) = %x, Go loops %x",
			ta, m, k, n, lo, hi, alpha, zeroFrac, i, i/n, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
}

// TestAxpyPanelMatchesGoLoop holds the axpy-form panel, on whichever tier
// the host runs, to its Go loops: every list length a k-block can have and
// its kn % 4 tail, k across kcBlock, every column remainder the 32-, 16-, 8-
// and 4-wide passes and the masked tail leave, panels that start and end
// inside C, and an infinite alpha, which turns a zero coefficient into a NaN
// the list must keep — and a tail's empty lanes into NaNs it must not.
func TestAxpyPanelMatchesGoLoop(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		r := parityRNG(14)
		for _, ta := range []bool{false, true} {
			for m := 1; m <= 5; m++ {
				for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 33, 40, 63, 64, 65} {
					for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 130} {
						for _, az := range [][2]float64{{1, 0}, {0.5, 0.6}, {-2, 1}, {math.Inf(1), 0.6}} {
							axpyPanelCheck(t, &r, ta, m, k, n, m/3, m-m/4, az[0], az[1])
						}
					}
				}
			}
		}
	})
}

// FuzzAxpyPanelTwin: a random axpy-form product, panel and alpha (raw
// bits) through axpyPanelCheck on both tiers.
func FuzzAxpyPanelTwin(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(4), uint8(64), math.Float64bits(1), true)
	f.Add(uint64(2), uint8(4), uint8(10), uint8(64), math.Float64bits(-0.25), false)
	f.Add(uint64(3), uint8(5), uint8(67), uint8(13), math.Float64bits(math.Inf(-1)), true)
	f.Add(uint64(4), uint8(3), uint8(2), uint8(3), math.Float64bits(math.NaN()), false)
	f.Add(uint64(5), uint8(7), uint8(129), uint8(35), math.Float64bits(5e-324), true)
	f.Fuzz(func(t *testing.T, seed uint64, m, k, n uint8, alphaBits uint64, ta bool) {
		r := parityRNG(seed)
		mm, kk, nn := 1+int(m)%12, 1+int(k)%140, 1+int(n)%70
		lo := r.intn(mm)
		hi := lo + 1 + r.intn(mm-lo)
		zeroFrac := float64(r.intn(5)) / 4
		eachTier(t, func(t *testing.T) {
			rr := r
			axpyPanelCheck(t, &rr, ta, mm, kk, nn, lo, hi, math.Float64frombits(alphaBits), zeroFrac)
		})
	})
}

// TestMaskKernelsMatchGoLoops holds ReLU and ReLUGrad, on whichever tier the
// host runs, to their Go bodies: every length around the four-lane group at
// every misalignment of head and tail, over the patterns integer compares
// could get wrong, with the neighbours of the destination checked.
func TestMaskKernelsMatchGoLoops(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		r := parityRNG(15)
		pick := func() float64 { return maskSpecials[int((r.next()+1)/2*float64(len(maskSpecials)))%len(maskSpecials)] }
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17} {
			for offset := 0; offset < 4; offset++ {
				for rep := 0; rep < 8; rep++ {
					src, _ := guarded(n, offset, pick)
					out, _ := guarded(n, (offset+1)%4, pick)
					got, gotWhole := guarded(n, offset, pick)
					wantWhole := append([]float64(nil), gotWhole...)
					want := wantWhole[offset : offset+n]

					ReLU(got, src)
					reluGo(want, src)
					if i, ok := bitsEqual(gotWhole, wantWhole); !ok {
						t.Fatalf("ReLU n=%d offset=%d: buffer element %d = %x, Go loop leaves %x",
							n, offset, i, math.Float64bits(gotWhole[i]), math.Float64bits(wantWhole[i]))
					}
					ReLUGrad(got, src, out)
					reluGradGo(want, src, out)
					if i, ok := bitsEqual(gotWhole, wantWhole); !ok {
						t.Fatalf("ReLUGrad n=%d offset=%d: buffer element %d = %x, Go loop leaves %x",
							n, offset, i, math.Float64bits(gotWhole[i]), math.Float64bits(wantWhole[i]))
					}
				}
			}
		}
	})
}

// TestVectorKernelsMatchGoLoops holds Axpy, Add and Sub, on whichever tier
// the host runs, to axpyGo, addGo and subGo: every length around the four-lane group and
// the model sizes the engines pass, at every misalignment, over finite values
// and the specials, with the neighbours of the destination checked. Sub's
// operand order is fixed by the subtraction; Axpy's two commutative
// operations are not, so where two of alpha, x[i] and y[i] are NaN the kernel
// may keep either NaN (it keeps the one the Go loop compiles to today).
func TestVectorKernelsMatchGoLoops(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		r := parityRNG(16)
		pick := func() float64 {
			if r.intn(3) == 0 {
				return maskSpecials[r.intn(len(maskSpecials))]
			}
			return r.next() * 4
		}
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 650, 653} {
			for offset := 0; offset < 4; offset++ {
				for rep := 0; rep < 8; rep++ {
					alpha := pick()
					x, _ := guarded(n, offset, pick)
					a, _ := guarded(n, (offset+1)%4, pick)
					got, gotWhole := guarded(n, (offset+2)%4, pick)
					wantWhole := append([]float64(nil), gotWhole...)
					want := wantWhole[(offset+2)%4:][:n]
					y := append([]float64(nil), got...)

					Axpy(alpha, x, got)
					axpyGo(alpha, x, want)
					for i := range gotWhole {
						g, w := gotWhole[i], wantWhole[i]
						if math.Float64bits(g) == math.Float64bits(w) {
							continue
						}
						if j := i - (offset+2)%4; j >= 0 && j < n && math.IsNaN(g) && math.IsNaN(w) && twoNaNs(alpha, x[j], y[j]) {
							continue
						}
						t.Fatalf("Axpy n=%d offset=%d alpha=%v: buffer element %d = %x, Go loop leaves %x",
							n, offset, alpha, i, math.Float64bits(g), math.Float64bits(w))
					}
					copy(wantWhole, gotWhole)
					Add(got, x, a)
					addGo(want, x, a)
					if i, ok := bitsEqual(gotWhole, wantWhole); !ok {
						t.Fatalf("Add n=%d offset=%d: buffer element %d = %x, Go loop leaves %x",
							n, offset, i, math.Float64bits(gotWhole[i]), math.Float64bits(wantWhole[i]))
					}
					copy(wantWhole, gotWhole)
					Sub(got, x, a)
					subGo(want, x, a)
					if i, ok := bitsEqual(gotWhole, wantWhole); !ok {
						t.Fatalf("Sub n=%d offset=%d: buffer element %d = %x, Go loop leaves %x",
							n, offset, i, math.Float64bits(gotWhole[i]), math.Float64bits(wantWhole[i]))
					}
					// In place, as sgd's g1 = g1 - g0 does.
					copy(wantWhole, gotWhole)
					Sub(got, got, a)
					subGo(want, want, a)
					if i, ok := bitsEqual(gotWhole, wantWhole); !ok {
						t.Fatalf("Sub in place n=%d offset=%d: buffer element %d = %x, Go loop leaves %x",
							n, offset, i, math.Float64bits(gotWhole[i]), math.Float64bits(wantWhole[i]))
					}
				}
			}
		}
	})
}

// twoNaNs reports whether y + alpha*x meets two NaN operands in one
// operation: in the multiply, or in the add.
func twoNaNs(alpha, x, y float64) bool {
	return math.IsNaN(alpha) && math.IsNaN(x) || math.IsNaN(alpha*x) && math.IsNaN(y)
}

func TestMaskHelpersPanicOnMismatch(t *testing.T) {
	s := ConvShape{Channels: 2, Height: 4, Width: 4, Kernel: 3, Stride: 1, Pad: 1}
	w, x := NewMatrix(3, s.PatchLen()), NewMatrix(16, s.PatchLen())
	img, pad, out := make([]float64, 32), make([]float64, s.PadLen()), make([]float64, 48)
	for name, f := range map[string]func(){
		"ReLU":          func() { ReLU(make([]float64, 3), make([]float64, 4)) },
		"ReLUGrad/grad": func() { ReLUGrad(make([]float64, 4), make([]float64, 3), make([]float64, 4)) },
		"ReLUGrad/dst":  func() { ReLUGrad(make([]float64, 5), make([]float64, 4), make([]float64, 4)) },
		"Axpy":          func() { Axpy(1, make([]float64, 5), make([]float64, 4)) },
		"Sub/b":         func() { Sub(make([]float64, 4), make([]float64, 4), make([]float64, 3)) },
		"Sub/dst":       func() { Sub(make([]float64, 5), make([]float64, 4), make([]float64, 4)) },
		"Add":           func() { Add(make([]float64, 4), make([]float64, 4), make([]float64, 3)) },
		"KeepDigit":     func() { KeepDigit(make([]uint64, 3), make([]float64, 4), 0) },
		"EmitAbove":     func() { EmitAbove(make([]int32, 3), make([]float64, 4), make([]float64, 4), 0) },
		"FillTies":      func() { FillTies(make([]int32, 4), make([]float64, 3), 0, make([]float64, 4), 0) },
		"Convolve/bias": func() { Convolve(s, w, make([]float64, 2), img, pad, x, out, false) },
		"Convolve/out":  func() { Convolve(s, w, make([]float64, 3), img, pad, x, out[:47], true) },
		"Convolve/w":    func() { Convolve(s, NewMatrix(3, 9), make([]float64, 3), img, pad, x, out, false) },
		"Convolve/img":  func() { Convolve(s, w, make([]float64, 3), img[:31], pad, x, out, true) },
		"Convolve/pad":  func() { Convolve(s, w, make([]float64, 3), img, pad[1:], x, out, false) },
		"ConvGrad/out": func() {
			var g ConvGrad
			g.Load(s, w, false)
			g.Sample(out, out[:47], img, pad, x, NewMatrix(3, s.PatchLen()), make([]float64, 3), nil)
		},
		"ConvGrad/dB": func() {
			var g ConvGrad
			g.Load(s, w, false)
			g.Sample(out, nil, img, pad, x, NewMatrix(3, s.PatchLen()), make([]float64, 2), nil)
		},
		"MaxPool/width":  func() { MaxPool(make([]float64, 24), 3, make([]float64, 6), make([]int, 6)) },
		"MaxPool/rows":   func() { MaxPool(make([]float64, 20), 4, make([]float64, 5), make([]int, 5)) },
		"MaxPool/dst":    func() { MaxPool(make([]float64, 32), 4, make([]float64, 7), make([]int, 8)) },
		"MaxPool/argmax": func() { MaxPool(make([]float64, 32), 4, make([]float64, 8), make([]int, 7)) },
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
