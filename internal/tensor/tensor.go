// Package tensor provides the dense linear-algebra substrate for the
// hand-rolled neural-network stack: float64 vectors and row-major matrices
// with the handful of BLAS-like kernels (axpy, dot, gemm, im2col) that
// mini-batch SGD on MLPs and small CNNs requires.
//
// Everything is plain Go over []float64 except one tier of AVX2 kernels
// behind the matmul entry points and the ReLU masks (gemm_amd64.s), which an
// amd64 runs when its CPUID says it can; Kernels reports the choice, and
// -tags purego builds without them. No cgo.
package tensor

import (
	"fmt"
	"math"
)

// Vector ops operate on raw []float64 slices so model parameters can live in
// one contiguous buffer and be averaged across workers with a single loop.

// Axpy computes y += alpha * x. Panics if lengths differ.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scal computes x *= alpha.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dot returns the inner product of x and y. Panics if lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Copy copies src into dst. Panics if lengths differ.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Copy length mismatch %d vs %d", len(dst), len(src)))
	}
	copy(dst, src)
}

// Zero sets every element of x to 0.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Add computes dst = a + b elementwise. Panics if lengths differ.
func Add(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("tensor: Add length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst = a - b elementwise. Panics if lengths differ.
func Sub(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("tensor: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Mean computes dst = elementwise mean of the given vectors, the model
// averaging step of PASGD (paper eq 3). Panics on an empty set or length
// mismatch.
func Mean(dst []float64, vecs ...[]float64) {
	if len(vecs) == 0 {
		panic("tensor: Mean of zero vectors")
	}
	Zero(dst)
	for _, v := range vecs {
		Axpy(1, v, dst)
	}
	Scal(1/float64(len(vecs)), dst)
}

// Kernels names the kernel tier this process runs: "avx2" for the assembly
// in gemm_amd64.s, "go" for the pure-Go loops. Results are bit-identical
// under both; only wall-clock differs.
func Kernels() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// reluKeep returns an all-ones mask when ReLU passes the value with bit
// pattern b through (positive, or NaN of either sign) and zero when it
// clamps it (zeros, negatives, -Inf): integer arithmetic only, so the
// element loop carries no data-dependent branch for random signs to
// mispredict.
func reluKeep(b uint64) uint64 {
	const inf = 0x7FF0000000000000
	neg := int64(b) >> 63                  // all ones when the sign bit is set
	nan := (inf - int64(b&^(1<<63))) >> 63 // all ones when |v| is above Inf
	return uint64(^neg | nan)
}

// ReLU computes dst = max(0, src) elementwise on bit patterns: v where v > 0,
// +0 where v <= 0, and NaN where v is NaN (sign and payload kept). Panics if
// lengths differ.
func ReLU(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: ReLU length mismatch %d vs %d", len(dst), len(src)))
	}
	n := reluBulk(dst, src)
	reluGo(dst[n:], src[n:])
}

func reluGo(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		b := math.Float64bits(v)
		dst[i] = math.Float64frombits(b & reluKeep(b))
	}
}

// ReLUGrad computes ReLU's input gradient from its output: dst = grad where
// out is anything but +0 — which is exactly where ReLU passed its input, NaN
// included — and +0 elsewhere. Panics if lengths differ.
func ReLUGrad(dst, grad, out []float64) {
	if len(dst) != len(out) || len(grad) != len(out) {
		panic("tensor: ReLUGrad length mismatch")
	}
	n := reluGradBulk(dst, grad, out)
	reluGradGo(dst[n:], grad[n:], out[n:])
}

func reluGradGo(dst, grad, out []float64) {
	dst, grad = dst[:len(out)], grad[:len(out)]
	for i, y := range out {
		b := math.Float64bits(y)
		dst[i] = math.Float64frombits(math.Float64bits(grad[i]) & uint64(-int64((b|-b)>>63)))
	}
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // length Rows*Cols, row-major
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimensions")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// BLAS semantics for the beta parameter of the Gem* kernels: beta == 0
// means "overwrite the destination", NOT "scale it by zero". The
// distinction matters because 0 * NaN = NaN — a destination holding stale
// NaN/Inf (e.g. a reused scratch buffer) must not poison the result.
//
// The Gem* kernels below are blocked (see blocked.go) and optionally
// fan output-row panels across a goroutine pool (SetWorkers; default 1 =
// serial). Every variant is bit-identical to its naive reference in naive.go
// at every worker count: per output element the floating-point operation
// sequence is the canonical reduce order — the beta-scaled destination plus
// one addition per term in ascending reduction index, with exact-zero A
// coefficients skipped in the axpy-form kernels (naive.go says which those
// are and why it matters to callers).

// Gemm computes C = alpha*A*B + beta*C. A is (M x K), B is (K x N),
// C is (M x N). beta == 0 overwrites C.
func Gemm(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("tensor: Gemm dimension mismatch")
	}
	axpyFormBlocked(alpha, a, b, beta, c, a.Cols, 1)
}

// GemmTA computes C = alpha*A^T*B + beta*C. A is (K x M), B is (K x N),
// C is (M x N). beta == 0 overwrites C.
func GemmTA(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic("tensor: GemmTA dimension mismatch")
	}
	axpyFormBlocked(alpha, a, b, beta, c, 1, a.Cols)
}

// GemmTB computes C = alpha*A*B^T + beta*C. A is (M x K), B is (N x K),
// C is (M x N). beta == 0 overwrites C.
func GemmTB(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("tensor: GemmTB dimension mismatch")
	}
	gemmTBBlocked(alpha, a, b, beta, c)
}
