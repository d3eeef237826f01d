//go:build amd64 && !purego

package tensor

// The SSE2 micro-kernels in gemm_amd64.s. Scalar Go code tops out at one
// multiply-add per cycle (Go emits scalar SSE2, and the bit-exactness
// contract forbids FMA because each term must be a separately-rounded
// multiply then add); the packed kernels retire two lanes per port and
// double the ceiling without changing any bit of the result. Build with
// -tags purego to run (and test) the pure-Go kernels on amd64.

// axpyList8 is the axpy-form micro-kernel: for each of nblk consecutive
// 8-column blocks of the C row at c,
//
//	c[j] += val[t] * b[off[t]+j]   (t = 0..n-1 ascending, j over the block)
//
// with the eight accumulators held in registers across the whole list. The
// caller guarantees n > 0 and that every b[off[t] : off[t]+8*nblk] and
// c[: 8*nblk] is addressable.
//
//go:noescape
func axpyList8(off *int, val *float64, n int, b, c *float64, nblk int)

// dotTB2x8 is the dot-form micro-kernel: the sixteen sums
//
//	out_r[j] = sum_k a_r[k] * b[j*ldb+k]   (r = 0,1; j = 0..7)
//
// each started from +0 and accumulated in ascending k over kn > 0 steps.
// ldbBytes is the byte stride between the eight B rows.
//
//go:noescape
func dotTB2x8(a0, a1, b *float64, ldbBytes, kn int, out0, out1 *float64)

// axpyList updates one C row from a compressed coefficient list: the packed
// kernel takes the 8-column blocks, the Go loop the remaining columns.
func axpyList(l *coefList, nnz int, b []float64, crow []float64) {
	nblk := len(crow) / 8
	if nblk > 0 {
		_ = b[l.off[nnz-1]+len(crow)-1] // offsets ascend: the last row reaches furthest
		axpyList8(&l.off[0], &l.val[0], nnz, &b[0], &crow[0], nblk)
	}
	axpyListGo(l, nnz, b, crow, nblk*8)
}

// dotTiles8 computes the leading 8-column blocks of the two dot-form C rows
// c0, c1 (A rows a0, a1 against B's rows) with the 2x8 packed tile — sixteen
// dot products, each lane one C element summing from +0 in ascending k
// exactly like Dot — and returns how many columns it covered. With beta == 0
// the sums land in C directly (1*s is s, bit for bit, so alpha == 1 needs no
// pass at all).
func dotTiles8(alpha float64, a0, a1 []float64, b *Matrix, beta float64, c0, c1 []float64) int {
	k, n := len(a0), b.Rows&^7
	if k == 0 || n == 0 {
		return 0
	}
	_, _, _ = a1[k-1], b.Data[n*k-1], c1[n-1]
	var s [16]float64
	for j := 0; j < n; j += 8 {
		d0, d1 := c0[j:j+8:j+8], c1[j:j+8:j+8]
		if beta == 0 {
			dotTB2x8(&a0[0], &a1[0], &b.Data[j*k], k*8, k, &d0[0], &d1[0])
			if alpha != 1 {
				Scal(alpha, d0)
				Scal(alpha, d1)
			}
			continue
		}
		dotTB2x8(&a0[0], &a1[0], &b.Data[j*k], k*8, k, &s[0], &s[8])
		for jj := range d0 {
			d0[jj] = alpha*s[jj] + beta*d0[jj]
			d1[jj] = alpha*s[8+jj] + beta*d1[jj]
		}
	}
	return n
}
