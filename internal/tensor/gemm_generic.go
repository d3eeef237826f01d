//go:build !amd64 || purego

package tensor

// Non-amd64 and -tags purego builds have no assembly tier: every entry point
// below goes straight to its Go loop.

// useAVX2 is never true in this build; tests read it to skip the assembly
// half of a two-tier run.
var useAVX2 = false

// axpyPanel declines: gemmPanel's Go loops take every row.
func axpyPanel(alpha float64, a, b, c *Matrix, lo, hi, iStride, kStride int) bool {
	return false
}

// dotTiles covers no columns: the Go tiles in gemmTBPanel take them all.
func dotTiles(alpha float64, a, b *Matrix, beta float64, c *Matrix, lo, hi int) int {
	return 0
}

func reluBulk(dst, src []float64) int { return 0 }

func reluGradBulk(dst, grad, out []float64) int { return 0 }

func axpyBulk(alpha float64, x, y []float64) int { return 0 }

func addBulk(dst, a, b []float64) int { return 0 }

func subBulk(dst, a, b []float64) int { return 0 }
