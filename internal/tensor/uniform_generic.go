//go:build !amd64 || purego

package tensor

// No assembly tier in this build: the Go loop in uniform.go takes every draw.

func uniformsBulk(dst []float64, s *[4]uint64) int { return 0 }
