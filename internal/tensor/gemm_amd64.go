//go:build amd64 && !purego

package tensor

// The AVX2 kernel tier (gemm_amd64.s) and the probe that selects it. Scalar
// Go code tops out at one multiply-add per cycle (Go emits scalar SSE2, and
// the bit-exactness contract forbids FMA because each term must be a
// separately-rounded multiply then add); the packed kernels retire four
// lanes per port without changing any bit of the result. There are two
// tiers and no third: an amd64 whose CPUID reports AVX2 and whose OS saves
// YMM state runs the assembly; every other amd64, every other GOARCH and
// -tags purego run the Go loops in blocked.go and tensor.go, which are also
// what each kernel is tested against.

// useAVX2 selects the tier. Set once, here; only tests assign it again (to
// run both tiers in one process).
var useAVX2 = probeAVX2()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() uint32

// probeAVX2 reports whether the kernels may run: the CPU has AVX2 (and AVX,
// POPCNT for compressAVX2) and the OS has enabled XSAVE and saves both the
// XMM and the YMM halves on a context switch.
func probeAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 { // XCR0 bit 1: SSE state, bit 2: AVX state
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// axpyListAVX2 is the axpy-form kernel: for each of nblk consecutive
// 8-column blocks of the C row at c,
//
//	c[j] += val[t] * b[off[t]+j]   (t = 0..n-1 ascending, j over the block)
//
// with the accumulators held in registers across the whole list. The caller
// guarantees n > 0 and that every b[off[t] : off[t]+8*nblk] and c[: 8*nblk]
// is addressable.
//
//go:noescape
func axpyListAVX2(off *int, val *float64, n int, b, c *float64, nblk int)

// dotTile4x8 is the dot-form kernel: the thirty-two sums
//
//	c[r*ldc+j] = sum_k a[r*lda+k] * b[j*ldb+k]   (r = 0..3, j = 0..7)
//
// each started from +0 and accumulated in ascending k over kn > 0 steps.
// The three strides are in BYTES. dotTile2x8 is the same for r = 0, 1, and
// for a single row when lda and ldc are 0.
//
//go:noescape
func dotTile4x8(a *float64, lda int, b *float64, ldb, kn int, c *float64, ldc int)

//go:noescape
func dotTile2x8(a *float64, lda int, b *float64, ldb, kn int, c *float64, ldc int)

// compressAVX2 is coefList.compressGo over groups > 0 groups of four
// coefficients a[0], a[stride], ... (stride in BYTES), from an empty list.
//
//go:noescape
func compressAVX2(alpha float64, a *float64, stride, groups, boff, ldb int, off *int, val *float64) int

// compressPerm[m] is the VPERMD pattern that moves the float64 lanes whose
// bit is set in m to the front, in order.
var compressPerm = [16][8]uint32{
	0b0001: {0, 1},
	0b0010: {2, 3},
	0b0011: {0, 1, 2, 3},
	0b0100: {4, 5},
	0b0101: {0, 1, 4, 5},
	0b0110: {2, 3, 4, 5},
	0b0111: {0, 1, 2, 3, 4, 5},
	0b1000: {6, 7},
	0b1001: {0, 1, 6, 7},
	0b1010: {2, 3, 6, 7},
	0b1011: {0, 1, 2, 3, 6, 7},
	0b1100: {4, 5, 6, 7},
	0b1101: {0, 1, 4, 5, 6, 7},
	0b1110: {2, 3, 4, 5, 6, 7},
	0b1111: {0, 1, 2, 3, 4, 5, 6, 7},
}

// reluAVX2 and reluGradAVX2 are reluGo and reluGradGo over n > 0 elements, n
// a multiple of 4.
//
//go:noescape
func reluAVX2(dst, src *float64, n int)

//go:noescape
func reluGradAVX2(dst, grad, out *float64, n int)

// compress fills the list: the kernel takes the whole groups of four, the Go
// loop the kn % 4 that are left — a four-lane store for them would run past
// the arrays' end.
func (l *coefList) compress(alpha float64, a []float64, stride, kn, boff, ldb int) int {
	done := kn &^ 3
	if !useAVX2 || done == 0 {
		return l.compressGo(0, alpha, a, stride, kn, boff, ldb)
	}
	_ = a[(done-1)*stride]
	n := compressAVX2(alpha, &a[0], stride*8, done/4, boff, ldb, &l.off[0], &l.val[0])
	if done == kn {
		return n // a[done*stride:] may not exist
	}
	return l.compressGo(n, alpha, a[done*stride:], stride, kn-done, boff+done*ldb, ldb)
}

// axpyList updates one C row from a compressed coefficient list: the kernel
// takes the 8-column blocks, the Go loop the remaining columns.
func axpyList(l *coefList, nnz int, b []float64, crow []float64) {
	nblk := 0
	if useAVX2 {
		nblk = len(crow) / 8
	}
	if nblk > 0 {
		_ = b[l.off[nnz-1]+len(crow)-1] // offsets ascend: the last row reaches furthest
		axpyListAVX2(&l.off[0], &l.val[0], nnz, &b[0], &crow[0], nblk)
	}
	axpyListGo(l, nnz, b, crow, nblk*8)
}

// dotTiles computes columns [0, n) of the dot-form C rows [lo, hi), n the
// largest multiple of 8 within b.Rows, and returns n: 4x8 tiles, then a 2x8
// and a 1x8 for the rows left over — every lane one C element summing from
// +0 in ascending k exactly like Dot. Column tiles are outermost, so the
// eight B rows of a tile are read once per panel. With beta == 0 the sums
// land in C directly (1*s is s, bit for bit, so alpha == 1 needs no pass at
// all); otherwise they go through a stack tile.
func dotTiles(alpha float64, a, b *Matrix, beta float64, c *Matrix, lo, hi int) int {
	k, n, ldc := a.Cols, b.Rows&^7, c.Cols
	if !useAVX2 || k == 0 || n == 0 || lo >= hi {
		return 0
	}
	_, _, _ = a.Data[hi*k-1], b.Data[n*k-1], c.Data[(hi-1)*ldc+n-1]
	var s [32]float64
	for j := 0; j < n; j += 8 {
		bt := &b.Data[j*k]
		for i, rows := lo, 0; i < hi; i += rows {
			out, ldo := &c.Data[i*ldc+j], ldc
			if beta != 0 {
				out, ldo = &s[0], 8
			}
			switch at := &a.Data[i*k]; {
			case hi-i >= 4:
				rows = 4
				dotTile4x8(at, k*8, bt, k*8, k, out, ldo*8)
			case hi-i >= 2:
				rows = 2
				dotTile2x8(at, k*8, bt, k*8, k, out, ldo*8)
			default:
				rows = 1
				dotTile2x8(at, 0, bt, k*8, k, out, 0)
			}
			if beta == 0 && alpha == 1 {
				continue
			}
			for r := 0; r < rows; r++ {
				d := c.Data[(i+r)*ldc+j:][:8]
				if beta == 0 {
					Scal(alpha, d)
					continue
				}
				for jj, sv := range s[r*8:][:8] {
					d[jj] = alpha*sv + beta*d[jj]
				}
			}
		}
	}
	return n
}

// reluBulk and reluGradBulk run the mask kernels over the leading multiple
// of four elements and return how many that was.
func reluBulk(dst, src []float64) int {
	n := len(src) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	reluAVX2(&dst[0], &src[0], n)
	return n
}

func reluGradBulk(dst, grad, out []float64) int {
	n := len(out) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	reluGradAVX2(&dst[0], &grad[0], &out[0], n)
	return n
}
