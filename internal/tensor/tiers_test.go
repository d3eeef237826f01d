package tensor

import (
	"math"
	"testing"
)

// Both kernel tiers in one `go test`: every parity suite runs on the Go loops
// and, where the probe allows it, on the AVX2 kernels, by flipping the
// package's one switch; the kernels that have no naive reference of their own
// (compress, the ReLU masks) are held to their Go bodies directly.

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

// TestCompressKernelMatchesGoLoop holds compressAVX2 (through coefList.compress)
// to compressGo for every list length a k-block can have, contiguous and
// strided, dense to all-zero, with the values planted whose zero-ness a
// vector compare could get wrong — and checks what it must NOT write: a
// four-lane store past the kept entries stays below entry kn, and nothing
// beside the arrays moves.
func TestCompressKernelMatchesGoLoop(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 tier in this build or on this CPU/OS: compress is compressGo")
	}
	// 0.5 * 5e-324 rounds to zero and must be dropped; 0.5 * 2.5e-308 is a
	// subnormal and must be kept.
	planted := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		5e-324, -5e-324, 2.5e-308}
	const canary = 0x5ca1ab1e5ca1ab1e
	r := parityRNG(14)
	for kn := 1; kn <= kcBlock; kn++ {
		for _, stride := range []int{1, 5} {
			for _, zeroFrac := range []float64{0, 0.5, 0.9, 1} {
				for _, alpha := range []float64{1, 0.5, -2} {
					a := make([]float64, (kn-1)*stride+1)
					for i := range a {
						a[i] = math.NaN() // between the strided coefficients: never read into the list
					}
					for c := 0; c < kn; c++ {
						switch u := (r.next() + 1) / 2; {
						case u < zeroFrac:
							a[c*stride] = 0
						case (r.next()+1)/2 < 0.3:
							a[c*stride] = planted[int((r.next()+1)/2*float64(len(planted)))%len(planted)]
						default:
							a[c*stride] = r.next() * 3
						}
					}
					var got, want struct {
						pre  [4]uint64
						l    coefList
						post [4]uint64
					}
					for i := range got.l.off {
						got.l.off[i], got.l.val[i] = canary, math.Float64frombits(canary)
					}
					for i := range got.pre {
						got.pre[i], got.post[i] = canary, canary
					}
					want = got
					n := got.l.compress(alpha, a, stride, kn, 1000, 7)
					if wantN := want.l.compressGo(0, alpha, a, stride, kn, 1000, 7); n != wantN {
						t.Fatalf("kn=%d stride=%d zeros=%v alpha=%v: kept %d, Go loop keeps %d", kn, stride, zeroFrac, alpha, n, wantN)
					}
					for i := 0; i < n; i++ {
						if got.l.off[i] != want.l.off[i] || math.Float64bits(got.l.val[i]) != math.Float64bits(want.l.val[i]) {
							t.Fatalf("kn=%d stride=%d zeros=%v alpha=%v: entry %d = (%d, %x), Go loop has (%d, %x)", kn, stride, zeroFrac, alpha,
								i, got.l.off[i], math.Float64bits(got.l.val[i]), want.l.off[i], math.Float64bits(want.l.val[i]))
						}
					}
					for i := kn; i < kcBlock; i++ {
						if got.l.off[i] != canary || math.Float64bits(got.l.val[i]) != canary {
							t.Fatalf("kn=%d stride=%d zeros=%v alpha=%v: entry %d written, past the %d coefficients", kn, stride, zeroFrac, alpha, i, kn)
						}
					}
					if got.pre != want.pre || got.post != want.post {
						t.Fatalf("kn=%d stride=%d zeros=%v alpha=%v: wrote outside the list's arrays", kn, stride, zeroFrac, alpha)
					}
				}
			}
		}
	}
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

func TestMaskHelpersPanicOnMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"ReLU":          func() { ReLU(make([]float64, 3), make([]float64, 4)) },
		"ReLUGrad/grad": func() { ReLUGrad(make([]float64, 4), make([]float64, 3), make([]float64, 4)) },
		"ReLUGrad/dst":  func() { ReLUGrad(make([]float64, 5), make([]float64, 4), make([]float64, 4)) },
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
