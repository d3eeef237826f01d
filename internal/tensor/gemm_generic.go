//go:build !amd64 || purego

package tensor

// Non-amd64 and -tags purego builds run the pure-Go kernels in blocked.go.

func axpyList(l *coefList, nnz int, b []float64, crow []float64) {
	axpyListGo(l, nnz, b, crow, 0)
}

// dotTiles8 covers no columns: the 2x2 Go tile in gemmTBPanel takes them all.
func dotTiles8(alpha float64, a0, a1 []float64, b *Matrix, beta float64, c0, c1 []float64) int {
	return 0
}
