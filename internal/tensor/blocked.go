package tensor

import (
	"math"
	"sync/atomic"

	"repro/internal/par"
)

// Blocked implementations of the Gem* kernels. The contract with
// naive.go: every output element accumulates exactly the same sequence of
// floating-point operations as the naive reference — beta-scale (or
// overwrite) first, then one addition per term in ascending reduction index,
// with the axpy-form zero-coefficient skip preserved — so results are
// bit-identical to the reference at every worker count. The speed comes from
// where values live and from work that is never issued, not from
// reassociating arithmetic: output elements stay in registers across a whole
// k-block, the axpy-form kernels compress each row's non-zero coefficients
// once and touch only those terms, and the optional fan-out gives each
// goroutine a disjoint set of output rows. On an amd64 with AVX2 the inner
// loops of Gemm, GemmTA and GemmTB and the coefficient compression are packed
// kernels (gemm_amd64.s) whose lanes hold independent C elements — same
// per-element multiply/add sequence, four retired per instruction instead of
// one; everywhere else the Go loops below run, and they are what the kernels
// are tested against.

const (
	// kcBlock is the k-panel size of the axpy-form kernels: the B panel
	// (kcBlock x N floats) stays cache-resident while every row of the panel
	// consumes it, and a row's coefficient list (coefList, zeroed per call)
	// stays at 1 KiB of stack. A power of two.
	kcBlock = 64
	// panelRows is the parallel work-unit height. Panels are contiguous and
	// disjoint, so each output row has exactly one writer.
	panelRows = 32
	// parMinWork is the minimum multiply-add count before a kernel fans
	// out; below it the goroutine hand-off costs more than the loop.
	parMinWork = 1 << 15
)

// kernelWorkers holds the pool width used by forRowPanels; <= 1 means
// serial. Read atomically per kernel call: nn layers run inside engine
// compute pools, so concurrent readers are the norm.
var kernelWorkers atomic.Int64

// Workers returns the current kernel worker count (always >= 1).
func Workers() int {
	if w := int(kernelWorkers.Load()); w > 1 {
		return w
	}
	return 1
}

// SetWorkers sets the goroutine count the matmul kernels may tile output-row
// panels across and returns the previous value. n < 1 clamps to 1 (serial,
// the default). Results are bit-identical at every setting; this only
// trades wall-clock for cores. Callers already inside a saturated pool
// (engine compute workers, experiment grids) should leave it at 1 —
// stacking pools oversubscribes the cores.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	prev := int(kernelWorkers.Swap(int64(n)))
	if prev < 1 {
		prev = 1
	}
	return prev
}

// parPanels returns the number of contiguous disjoint output-row panels a
// kernel call should fan out across, or 0 for the serial path. work is the
// multiply-add count of the whole call; small products never fan out. The
// kernels call their panel body DIRECTLY in the serial case — routing it
// through a closure would heap-allocate the capture on every call, and the
// hot path must stay allocation-free.
func parPanels(m, work int) int {
	panels := (m + panelRows - 1) / panelRows
	if Workers() <= 1 || panels <= 1 || work < parMinWork {
		return 0
	}
	return panels
}

// panelBounds maps panel p to its row range [lo, hi) within [0, m).
func panelBounds(p, m int) (lo, hi int) {
	lo = p * panelRows
	hi = lo + panelRows
	if hi > m {
		hi = m
	}
	return lo, hi
}

// scaleRows applies the beta pre-pass to rows [0, m) of c: overwrite on
// beta == 0 (BLAS semantics, stale NaN/Inf must not propagate), scale
// otherwise.
func scaleRows(beta float64, c *Matrix) {
	if beta == 0 {
		Zero(c.Data)
	} else if beta != 1 {
		for i := range c.Data {
			c.Data[i] *= beta
		}
	}
}

// axpyFormBlocked is C = alpha*op(A)*B + beta*C for both axpy-form
// products. Coefficient (i, kk) of op(A) sits at a.Data[i*iStride +
// kk*kStride]: (a.Cols, 1) reads A as stored (Gemm), (1, a.Cols) reads it
// transposed (GemmTA). The naive GemmTA walks k outermost; for a fixed C
// element the terms still arrive in ascending k, so working by C-row panels
// reorders nothing per element.
func axpyFormBlocked(alpha float64, a, b *Matrix, beta float64, c *Matrix, iStride, kStride int) {
	m, k, n := c.Rows, b.Rows, b.Cols
	scaleRows(beta, c)
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if panels := parPanels(m, m*n*k); panels > 0 {
		// Capture COPIES of the matrix headers: capturing the parameters
		// themselves would make every caller's header escape to the heap,
		// and nn layers build Matrix views on the stack per call.
		aa, bb, cc := *a, *b, *c
		par.ForEach(panels, Workers(), func(p int) {
			lo, hi := panelBounds(p, m)
			gemmPanel(alpha, &aa, &bb, &cc, lo, hi, iStride, kStride)
		})
		return
	}
	gemmPanel(alpha, a, b, c, 0, m, iStride, kStride)
}

// gemmPanel computes C rows [lo, hi) of an axpy-form product after the beta
// pre-pass. The k-blocks are outermost, so every element still accumulates
// its terms in ascending k. Per C row and k-block the non-zero coefficients
// are compressed ONCE into a list (coefList), and the row is then updated
// from the listed B rows only: the naive kernel's zero skip becomes work
// that is never issued, which is what makes post-ReLU / post-pool gradient
// operands (50-90% exact zeros) cheap instead of a reason to leave the
// packed kernel.
func gemmPanel(alpha float64, a, b, c *Matrix, lo, hi, iStride, kStride int) {
	var l coefList
	k, n := b.Rows, b.Cols
	for k0 := 0; k0 < k; k0 += kcBlock {
		kn := min(kcBlock, k-k0)
		for i := lo; i < hi; i++ {
			nnz := l.compress(alpha, a.Data[i*iStride+k0*kStride:], kStride, kn, k0*n, n)
			if nnz > 0 {
				axpyList(&l, nnz, b.Data, c.Row(i))
			}
		}
	}
}

// coefList is the compressed coefficient list of one C row over one k-block:
// val[t] is the t-th non-zero alpha*a, off[t] the offset in B.Data of the B
// row it scales. Entries are in ascending k.
type coefList struct {
	off [kcBlock]int
	val [kcBlock]float64
}

// compressGo appends to l, which holds n entries, the kn coefficients a[0],
// a[stride], ... whose B rows start at boff, boff+ldb, ... and returns the
// number the list holds then. A coefficient is dropped exactly when the naive
// kernels skip it (alpha*a == 0, either sign; NaN is kept). The count
// advances by integer arithmetic on the bit pattern: a compare-and-branch
// here would mispredict on every other element of a half-zero operand. Not
// inlined: inside gemmPanel the loop's counters spill to the stack.
// coefList.compress (one per build) is this from n = 0, with the packed
// kernel in front where there is one.
//
//go:noinline
func (l *coefList) compressGo(n int, alpha float64, a []float64, stride, kn, boff, ldb int) int {
	for t := 0; kn > 0; kn-- {
		v := alpha * a[t]
		l.off[n&(kcBlock-1)] = boff
		l.val[n&(kcBlock-1)] = v
		mag := math.Float64bits(v) << 1 // drops the sign: zero iff v == 0
		n += int((mag | -mag) >> 63)
		t += stride
		boff += ldb
	}
	return n
}

// axpyListGo is crow[j] += sum_t l.val[t] * b[l.off[t]+j] for j in [j0,
// len(crow)), every element taking its terms in list order. Four columns
// share each coefficient load; the accumulators stay in registers across
// the whole list.
func axpyListGo(l *coefList, nnz int, b []float64, crow []float64, j0 int) {
	off, val := l.off[:nnz], l.val[:nnz]
	j := j0
	for ; j+4 <= len(crow); j += 4 {
		cs := crow[j : j+4 : j+4]
		s0, s1, s2, s3 := cs[0], cs[1], cs[2], cs[3]
		for t, v := range val {
			bs := b[off[t]+j : off[t]+j+4 : off[t]+j+4]
			s0 += v * bs[0]
			s1 += v * bs[1]
			s2 += v * bs[2]
			s3 += v * bs[3]
		}
		cs[0], cs[1], cs[2], cs[3] = s0, s1, s2, s3
	}
	for ; j < len(crow); j++ {
		s := crow[j]
		for t, v := range val {
			s += v * b[off[t]+j]
		}
		crow[j] = s
	}
}

func gemmTBBlocked(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Rows // C is m x n, dot-product form
	if m == 0 || n == 0 {
		return
	}
	if panels := parPanels(m, m*n*k); panels > 0 {
		aa, bb, cc := *a, *b, *c // header copies: keep caller headers off the heap
		par.ForEach(panels, Workers(), func(p int) {
			lo, hi := panelBounds(p, m)
			gemmTBPanel(alpha, &aa, &bb, beta, &cc, lo, hi, n)
		})
		return
	}
	gemmTBPanel(alpha, a, b, beta, c, 0, m, n)
}

// axpby is the dot-form epilogue: alpha*s + beta*c, with beta == 0
// overwriting.
func axpby(alpha, s, beta, c float64) float64 {
	if beta == 0 {
		return alpha * s
	}
	return alpha*s + beta*c
}

// gemmTBPanel computes C rows [lo, hi) of the dot-form product: the packed
// tiles take the leading multiple of eight columns where there are any
// (dotTiles, one per build), the Go tiles below the rest.
func gemmTBPanel(alpha float64, a, b *Matrix, beta float64, c *Matrix, lo, hi, n int) {
	j0 := dotTiles(alpha, a, b, beta, c, lo, hi)
	if j0 == n {
		return
	}
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0, a1 := a.Row(i), a.Row(i+1)
		c0, c1 := c.Row(i), c.Row(i+1)
		j := j0
		for ; j+2 <= n; j += 2 {
			// 2x2 register tile: four dot products sharing every
			// streamed A and B element; each accumulator sums in
			// ascending k exactly like Dot. The reslices pin all
			// operands to len(a0) for bounds-check elimination.
			a1 := a1[:len(a0)]
			b0 := b.Row(j)[:len(a0)]
			b1 := b.Row(j + 1)[:len(a0)]
			var s00, s01, s10, s11 float64
			for kk, av0 := range a0 {
				av1 := a1[kk]
				bv0 := b0[kk]
				bv1 := b1[kk]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s10 += av1 * bv0
				s11 += av1 * bv1
			}
			c0[j] = axpby(alpha, s00, beta, c0[j])
			c0[j+1] = axpby(alpha, s01, beta, c0[j+1])
			c1[j] = axpby(alpha, s10, beta, c1[j])
			c1[j+1] = axpby(alpha, s11, beta, c1[j+1])
		}
		for ; j < n; j++ {
			brow := b.Row(j)
			var s0, s1 float64
			for kk, av0 := range a0 {
				bv := brow[kk]
				s0 += av0 * bv
				s1 += a1[kk] * bv
			}
			c0[j] = axpby(alpha, s0, beta, c0[j])
			c1[j] = axpby(alpha, s1, beta, c1[j])
		}
	}
	for ; i < hi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for j := j0; j < n; j++ {
			crow[j] = axpby(alpha, Dot(arow, b.Row(j)), beta, crow[j])
		}
	}
}
