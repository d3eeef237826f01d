//go:build !amd64 || purego

package tensor

// No assembly tier in this build: the Go loops in topk.go take every value.

func countDigitsBulk(vec []float64, hist *[1 << DigitBits]uint32) (int, uint64) { return 0, 0 }

func keepDigitBulk(keys []uint64, vec []float64, digit uint64) (n, done int) { return 0, 0 }

func emitAboveBulk(idx []int32, vals []float64, vec []float64, thresh uint64) (n, done int) {
	return 0, 0
}

func fillTiesBulk(idx []int32, vals []float64, n int, vec []float64, thresh uint64) (count, done int) {
	return n, 0
}
