//go:build !amd64 || purego

package tensor

// No assembly tier in this build: the Go loops in quant.go take every element.

func quantizeBulk(levels []int16, vec, u []float64, norm, s float64) int { return 0 }

func dequantizeBulk(dst []float64, levels []int16, norm, s float64) int { return 0 }

func accumulateBulk(dst []float64, levels []int16, norm, s float64) int { return 0 }
