//go:build !amd64 || purego

package tensor

// No assembly tier in this build: the Go loop in polar.go takes every element.

func polarBulk(dst, u, s []float64) int { return 0 }
