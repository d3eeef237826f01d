//go:build !amd64 || purego

package tensor

// No assembly tier in this build: the Go loop in mix.go takes every
// coordinate.

func chocoMixBulk(post, prj, x, hat []float64, self int, order []int, ws []float64, gamma float64) int {
	return 0
}
