//go:build !amd64 || purego

package tensor

// No assembly tier in this build: math.Exp takes every element.

func expBulk(dst, src []float64) int { return 0 }
