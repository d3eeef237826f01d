//go:build !amd64 || purego

package tensor

// No assembly tier in this build: the Go loops in topk.go take every value.

func countDigitsBulk(vec []float64, hist *[1 << DigitBits]uint32) (int, uint64) { return 0, 0 }

func addCountBulk(sum, vec []float64, hist *[1 << DigitBits]uint32) (int, uint64) { return 0, 0 }

func keepFromBulk(at []int32, vec []float64, digit uint64) (n, done int) { return 0, 0 }
