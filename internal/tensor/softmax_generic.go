//go:build !amd64 || purego

package tensor

// No assembly tier in this build: the scalar loop takes every row.

func softmaxBulk(logZ, d, x []float64, cols int, scale float64) int { return 0 }
