//go:build !amd64 || purego

package tensor

// Non-amd64 and -tags purego builds have no assembly tier: every entry point
// below goes straight to its Go loop.

// useAVX2 is never true in this build; tests read it to skip the assembly
// half of a two-tier run.
var useAVX2 = false

func (l *coefList) compress(alpha float64, a []float64, stride, kn, boff, ldb int) int {
	return l.compressGo(0, alpha, a, stride, kn, boff, ldb)
}

func axpyList(l *coefList, nnz int, b []float64, crow []float64) {
	axpyListGo(l, nnz, b, crow, 0)
}

// dotTiles covers no columns: the Go tiles in gemmTBPanel take them all.
func dotTiles(alpha float64, a, b *Matrix, beta float64, c *Matrix, lo, hi int) int {
	return 0
}

func reluBulk(dst, src []float64) int { return 0 }

func reluGradBulk(dst, grad, out []float64) int { return 0 }
