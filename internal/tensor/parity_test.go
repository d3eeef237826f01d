package tensor

import (
	"fmt"
	"math"
	"testing"
)

// Parity tests: the blocked/tiled kernels must be BIT-identical to the naive
// references in naive.go — same canonical reduce order, same zero-skip —
// across ragged shapes (dims straddling panelRows/kcBlock), every
// transpose variant, beta in {0, 1, 0.5}, and worker counts 1/4/8. Each suite
// below is a lower-case function that tiers_test.go runs once per kernel
// tier under its Test name.

// parityRNG is a tiny deterministic generator so the tables need no seeds
// from math/rand.
type parityRNG uint64

func (r *parityRNG) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	u := uint64(*r) >> 11
	return float64(u)/float64(1<<53)*2 - 1
}

// fillParity populates data with a mix of regular values, exact +0/-0 (to
// exercise the zero-skip path), and larger magnitudes.
func fillParity(r *parityRNG, data []float64) {
	for i := range data {
		v := r.next()
		switch {
		case v > 0.8:
			data[i] = 0
		case v < -0.8:
			data[i] = math.Copysign(0, -1)
		default:
			data[i] = v * 3
		}
	}
}

func parityMatrix(r *parityRNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	fillParity(r, m.Data)
	return m
}

func cloneMatrix(m *Matrix) *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

func bitsEqual(got, want []float64) (int, bool) {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return -1, true
}

var parityShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 5},
	{3, 4, 5},
	{7, 13, 5},
	{5, 300, 7},   // k crosses kcBlock
	{31, 33, 2},   // m just under panelRows
	{32, 32, 32},  // exact tile/panel multiples
	{33, 65, 17},  // everything ragged
	{129, 65, 64}, // m crosses panels, above parMinWork: parallel path runs
	{64, 260, 31}, // k crosses kcBlock with ragged rows
}

var parityBetas = []float64{0, 1, 0.5}
var parityWorkers = []int{1, 4, 8}

func gemmParity(t *testing.T) {
	r := parityRNG(1)
	for _, w := range parityWorkers {
		prev := SetWorkers(w)
		for _, sh := range parityShapes {
			for _, beta := range parityBetas {
				a := parityMatrix(&r, sh.m, sh.k)
				b := parityMatrix(&r, sh.k, sh.n)
				cGot := parityMatrix(&r, sh.m, sh.n)
				cWant := cloneMatrix(cGot)
				Gemm(1.25, a, b, beta, cGot)
				GemmNaive(1.25, a, b, beta, cWant)
				if i, ok := bitsEqual(cGot.Data, cWant.Data); !ok {
					t.Fatalf("Gemm workers=%d shape=%v beta=%v: element %d = %x want %x",
						w, sh, beta, i, math.Float64bits(cGot.Data[i]), math.Float64bits(cWant.Data[i]))
				}
			}
		}
		SetWorkers(prev)
	}
}

func gemmTAParity(t *testing.T) {
	r := parityRNG(2)
	for _, w := range parityWorkers {
		prev := SetWorkers(w)
		for _, sh := range parityShapes {
			for _, beta := range parityBetas {
				a := parityMatrix(&r, sh.k, sh.m) // A is (K x M)
				b := parityMatrix(&r, sh.k, sh.n)
				cGot := parityMatrix(&r, sh.m, sh.n)
				cWant := cloneMatrix(cGot)
				GemmTA(-0.75, a, b, beta, cGot)
				GemmTANaive(-0.75, a, b, beta, cWant)
				if i, ok := bitsEqual(cGot.Data, cWant.Data); !ok {
					t.Fatalf("GemmTA workers=%d shape=%v beta=%v: element %d = %x want %x",
						w, sh, beta, i, math.Float64bits(cGot.Data[i]), math.Float64bits(cWant.Data[i]))
				}
			}
		}
		SetWorkers(prev)
	}
}

func gemmTBParity(t *testing.T) {
	r := parityRNG(3)
	for _, w := range parityWorkers {
		prev := SetWorkers(w)
		for _, sh := range parityShapes {
			for _, beta := range parityBetas {
				a := parityMatrix(&r, sh.m, sh.k)
				b := parityMatrix(&r, sh.n, sh.k) // B is (N x K)
				cGot := parityMatrix(&r, sh.m, sh.n)
				cWant := cloneMatrix(cGot)
				GemmTB(2, a, b, beta, cGot)
				GemmTBNaive(2, a, b, beta, cWant)
				if i, ok := bitsEqual(cGot.Data, cWant.Data); !ok {
					t.Fatalf("GemmTB workers=%d shape=%v beta=%v: element %d = %x want %x",
						w, sh, beta, i, math.Float64bits(cGot.Data[i]), math.Float64bits(cWant.Data[i]))
				}
			}
		}
		SetWorkers(prev)
	}
}

// gemmParityAllZeroRows pins the zero-skip contract on whole A rows of
// exact zeros (an empty coefficient list: the C row must come back
// untouched), mixed with nonzero rows.
func gemmParityAllZeroRows(t *testing.T) {
	r := parityRNG(6)
	a := parityMatrix(&r, 8, 12)
	for k := 0; k < 12; k++ {
		a.Set(1, k, 0)                    // row fully +0
		a.Set(2, k, math.Copysign(0, -1)) // row fully -0
	}
	b := parityMatrix(&r, 12, 9)
	for _, beta := range parityBetas {
		cGot := parityMatrix(&r, 8, 9)
		cWant := cloneMatrix(cGot)
		Gemm(1, a, b, beta, cGot)
		GemmNaive(1, a, b, beta, cWant)
		if i, ok := bitsEqual(cGot.Data, cWant.Data); !ok {
			t.Fatalf("beta=%v element %d = %x want %x",
				beta, i, math.Float64bits(cGot.Data[i]), math.Float64bits(cWant.Data[i]))
		}
	}
}

// gemmParityDenseAlphaOne pins the dense end of the coefficient-list
// path: alpha == 1 with zero-free A, so every list is as long as its
// k-block, and the result must still be bit-identical to the naive
// reference.
func gemmParityDenseAlphaOne(t *testing.T) {
	r := parityRNG(8)
	dense := func(rows, cols int) *Matrix {
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.next() + 2 // no exact zeros
		}
		return m
	}
	for _, w := range parityWorkers {
		prev := SetWorkers(w)
		for _, sh := range parityShapes {
			for _, beta := range parityBetas {
				a := dense(sh.m, sh.k)
				b := parityMatrix(&r, sh.k, sh.n)
				cGot := parityMatrix(&r, sh.m, sh.n)
				cWant := cloneMatrix(cGot)
				Gemm(1, a, b, beta, cGot)
				GemmNaive(1, a, b, beta, cWant)
				if i, ok := bitsEqual(cGot.Data, cWant.Data); !ok {
					t.Fatalf("dense Gemm workers=%d shape=%v beta=%v: element %d = %x want %x",
						w, sh, beta, i, math.Float64bits(cGot.Data[i]), math.Float64bits(cWant.Data[i]))
				}
			}
		}
		SetWorkers(prev)
	}
}

func TestSetWorkers(t *testing.T) {
	if got := Workers(); got != 1 {
		t.Fatalf("default Workers() = %d, want 1", got)
	}
	if prev := SetWorkers(4); prev != 1 {
		t.Fatalf("SetWorkers(4) returned prev %d, want 1", prev)
	}
	if got := Workers(); got != 4 {
		t.Fatalf("Workers() after SetWorkers(4) = %d, want 4", got)
	}
	if prev := SetWorkers(0); prev != 4 {
		t.Fatalf("SetWorkers(0) returned prev %d, want 4", prev)
	}
	if got := Workers(); got != 1 {
		t.Fatalf("Workers() after SetWorkers(0) = %d, want 1 (clamped)", got)
	}
}

// parallelGemmRace runs concurrent Gemm calls under SetWorkers > 1 so
// the CI race job exercises the kernel fan-out.
func parallelGemmRace(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	const mdim = 129
	r := parityRNG(7)
	a := parityMatrix(&r, mdim, 64)
	b := parityMatrix(&r, 64, 65)
	want := NewMatrix(mdim, 65)
	GemmNaive(1, a, b, 0, want)
	done := make(chan error, 3)
	for g := 0; g < 3; g++ {
		go func() {
			c := NewMatrix(mdim, 65)
			for it := 0; it < 5; it++ {
				Gemm(1, a, b, 0, c)
			}
			if i, ok := bitsEqual(c.Data, want.Data); !ok {
				done <- fmt.Errorf("element %d differs", i)
				return
			}
			done <- nil
		}()
	}
	for g := 0; g < 3; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// sameFloats is bitsEqual with one allowance: two NaNs match whatever their
// sign and payload. Which NaN survives x + y when BOTH are NaN depends on
// the operand order the compiler picked for the naive loop, so only NaN-ness
// is part of the contract. Everything else, -0 included, is compared bit
// for bit.
func sameFloats(got, want []float64) (int, bool) {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
			!(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i, false
		}
	}
	return -1, true
}

// zeroLadenMatrix is the coefficient operand conv training produces: a
// zeroFrac share of exact zeros (a quarter of them -0), row `wholeRow`
// entirely zero, the rest regular values.
func zeroLadenMatrix(r *parityRNG, rows, cols int, zeroFrac float64, wholeRow int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		v := r.next()
		switch u := (r.next() + 1) / 2; {
		case u < zeroFrac/4:
			m.Data[i] = math.Copysign(0, -1)
		case u < zeroFrac:
			m.Data[i] = 0
		default:
			m.Data[i] = v*3 + math.Copysign(0.01, v)
		}
	}
	if wholeRow < rows {
		Zero(m.Row(wholeRow))
	}
	return m
}

// kernelCase is one product form under test: how to lay the operands out
// for an m x n result reduced over k, the coefficient operand first.
type kernelCase struct {
	name        string
	blocked     func(alpha float64, a, b *Matrix, beta float64, c *Matrix)
	naive       func(alpha float64, a, b *Matrix, beta float64, c *Matrix)
	aDims       func(m, k int) (rows, cols int)
	bDims       func(k, n int) (rows, cols int)
	aAt, bAt    func(mat *Matrix, outer, kk int) *float64 // element (row-or-col, reduction index)
	skipsZeroes bool
}

var kernelCases = []kernelCase{
	{"Gemm", Gemm, GemmNaive,
		func(m, k int) (int, int) { return m, k }, func(k, n int) (int, int) { return k, n },
		func(a *Matrix, i, kk int) *float64 { return &a.Data[i*a.Cols+kk] },
		func(b *Matrix, j, kk int) *float64 { return &b.Data[kk*b.Cols+j] }, true},
	{"GemmTA", GemmTA, GemmTANaive,
		func(m, k int) (int, int) { return k, m }, func(k, n int) (int, int) { return k, n },
		func(a *Matrix, i, kk int) *float64 { return &a.Data[kk*a.Cols+i] },
		func(b *Matrix, j, kk int) *float64 { return &b.Data[kk*b.Cols+j] }, true},
	{"GemmTB", GemmTB, GemmTBNaive,
		func(m, k int) (int, int) { return m, k }, func(k, n int) (int, int) { return n, k },
		func(a *Matrix, i, kk int) *float64 { return &a.Data[i*a.Cols+kk] },
		func(b *Matrix, j, kk int) *float64 { return &b.Data[j*b.Cols+kk] }, false},
}

// convParityShapes straddle everything the packed kernels tile by: n below,
// at and off multiples of 8 and 16, k = 9 (a 3x3 single-channel patch), k
// crossing kcBlock, m = 1 and odd m, plus the three conv-layer shapes.
var convParityShapes = []struct{ m, k, n int }{
	{1, 9, 8}, {1, 9, 9}, {2, 9, 7}, {3, 9, 17}, {2, 1, 16}, {5, 70, 23}, {4, 130, 40},
	{8, 64, 9}, {16, 16, 72}, {8, 64, 72}, // dW: G (F x P) * X (P x L)
	{64, 8, 9}, {16, 16, 72}, {64, 8, 72}, // dX: G^T (P x F) * W (F x L)
	{8, 9, 64}, {16, 72, 16}, {8, 72, 64}, // forward: W (F x L) * X^T (L x P)
	{129, 65, 24}, // above parMinWork: the fan-out runs
}

// kernelParityZeroLaden pins every matmul entry point against its naive
// reference on the operands conv training feeds them: half- and
// three-quarter-zero coefficient matrices with -0 among the zeros and one
// all-zero row, destinations holding -0 under beta = 1 (a skipped element
// must keep its sign; an unskipped one must not), at one and four workers.
func kernelParityZeroLaden(t *testing.T) {
	r := parityRNG(11)
	for _, w := range []int{1, 4} {
		prev := SetWorkers(w)
		for _, kc := range kernelCases {
			for _, sh := range convParityShapes {
				for _, zeroFrac := range []float64{0.5, 0.75} {
					for _, beta := range []float64{0, 1} {
						ar, ac := kc.aDims(sh.m, sh.k)
						br, bc := kc.bDims(sh.k, sh.n)
						a := zeroLadenMatrix(&r, ar, ac, zeroFrac, 1)
						if kc.name == "GemmTA" { // a zero COLUMN is the all-zero output row there
							for kk := 0; kk < sh.k && sh.m > 1; kk++ {
								*kc.aAt(a, 1, kk) = 0
							}
						}
						b := zeroLadenMatrix(&r, br, bc, 0.25, br)
						cGot := zeroLadenMatrix(&r, sh.m, sh.n, 0.5, 0)
						for j := range cGot.Row(0) {
							cGot.Row(0)[j] = math.Copysign(0, -1)
						}
						cWant := cloneMatrix(cGot)
						kc.blocked(1, a, b, beta, cGot)
						kc.naive(1, a, b, beta, cWant)
						if i, ok := bitsEqual(cGot.Data, cWant.Data); !ok {
							t.Fatalf("%s workers=%d shape=%v zeros=%v beta=%v: element %d = %x want %x",
								kc.name, w, sh, zeroFrac, beta, i,
								math.Float64bits(cGot.Data[i]), math.Float64bits(cWant.Data[i]))
						}
					}
				}
			}
		}
		SetWorkers(prev)
	}
}

// kernelParityNonFinite plants +Inf, -Inf and NaN in B, once opposite
// an exactly-zero coefficient and once opposite a non-zero one. The
// axpy-form kernels must hide the first exactly as the naive skip does
// (0 x Inf never reaches the sum) and propagate the second; the dot-form
// kernel skips nothing, so both poison the element — in the blocked kernel
// exactly where they do in the naive one.
func kernelParityNonFinite(t *testing.T) {
	r := parityRNG(12)
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, w := range []int{1, 4} {
		prev := SetWorkers(w)
		for _, kc := range kernelCases {
			for _, sh := range convParityShapes {
				if sh.k < 3 {
					continue
				}
				for _, beta := range []float64{0, 1} {
					for _, underZero := range []bool{true, false} {
						ar, ac := kc.aDims(sh.m, sh.k)
						br, bc := kc.bDims(sh.k, sh.n)
						a := zeroLadenMatrix(&r, ar, ac, 0.5, ar)
						b := zeroLadenMatrix(&r, br, bc, 0, br)
						// Reduction indices 0..2 carry the specials, in
						// output column j = (n-1) and j = 0.
						for s, v := range specials {
							for _, j := range []int{0, sh.n - 1} {
								*kc.bAt(b, j, s) = v
							}
							for i := 0; i < sh.m; i++ {
								coef := 0.0
								if !underZero {
									coef = 1.5
								} else if i%2 == 1 {
									coef = math.Copysign(0, -1)
								}
								*kc.aAt(a, i, s) = coef
							}
						}
						cGot := zeroLadenMatrix(&r, sh.m, sh.n, 0.25, sh.m)
						cWant := cloneMatrix(cGot)
						kc.blocked(1, a, b, beta, cGot)
						kc.naive(1, a, b, beta, cWant)
						if i, ok := sameFloats(cGot.Data, cWant.Data); !ok {
							t.Fatalf("%s workers=%d shape=%v beta=%v underZero=%v: element %d = %v want %v",
								kc.name, w, sh, beta, underZero, i, cGot.Data[i], cWant.Data[i])
						}
						poisoned := math.IsNaN(cWant.At(0, 0)) || math.IsInf(cWant.At(0, 0), 0)
						if want := !(kc.skipsZeroes && underZero); poisoned != want {
							t.Fatalf("%s shape=%v underZero=%v: reference poisoned=%v, want %v",
								kc.name, sh, underZero, poisoned, want)
						}
					}
				}
			}
		}
		SetWorkers(prev)
	}
}

// TestCompressMatchesNaiveSkip pins the list builder on the values whose
// zero-ness is easy to get wrong with bit tricks: it must drop exactly what
// `alpha*a == 0` drops.
func TestCompressMatchesNaiveSkip(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -1,
		math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(), math.MaxFloat64, 2.5e-308}
	for _, alpha := range []float64{1, -0.5, 0, 1e-300} {
		var l coefList
		n := l.compressGo(0, alpha, vals, 1, len(vals), 100, 7)
		want := 0
		for k, v := range vals {
			if p := alpha * v; p != 0 {
				if l.off[want] != 100+7*k || math.Float64bits(l.val[want]) != math.Float64bits(p) {
					t.Fatalf("alpha=%v entry %d = (%d, %v), want (%d, %v)",
						alpha, want, l.off[want], l.val[want], 100+7*k, p)
				}
				want++
			}
		}
		if n != want {
			t.Fatalf("alpha=%v kept %d coefficients, want %d", alpha, n, want)
		}
	}
}
