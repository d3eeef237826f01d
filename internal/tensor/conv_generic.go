//go:build !amd64 || purego

package tensor

// No assembly tier in this build: the Go loops in im2col.go take every patch.

func lowerRows(w padWalk, d, pad []float64) { lowerRowsGo(w, d, pad) }

func raiseRows(w padWalk, pad, d []float64) { raiseRowsGo(w, pad, d) }
