//go:build amd64 && !purego

package tensor

// countAVX2 is countDigitsGo over n > 0 values, n a multiple of 4, returning
// the occupancy word.
//
//go:noescape
func countAVX2(vec *float64, n int, hist *uint32) uint64

// addCountAVX2 is addCountGo over n > 0 values, n a multiple of 4,
// returning the occupancy word.
//
//go:noescape
func addCountAVX2(sum, vec *float64, n int, hist *uint32) uint64

// keepFromAVX2 is keepFromGo over at most groups > 0 groups of four values
// from index 0 into an empty list, and stops before a group it would store
// at a cursor above stop. It returns the count kept and how many values it
// took.
//
//go:noescape
func keepFromAVX2(at *int32, vec *float64, stop, groups int, digit uint64) (count, done int)

// emitPerm[m] lists the lanes whose bit is set in m, in order: the offsets,
// from a group's first index, of the indices the group emits.
var emitPerm = [16][4]uint32{
	0b0001: {0},
	0b0010: {1},
	0b0011: {0, 1},
	0b0100: {2},
	0b0101: {0, 2},
	0b0110: {1, 2},
	0b0111: {0, 1, 2},
	0b1000: {3},
	0b1001: {0, 3},
	0b1010: {1, 3},
	0b1011: {0, 1, 3},
	0b1100: {2, 3},
	0b1101: {0, 2, 3},
	0b1110: {1, 2, 3},
	0b1111: {0, 1, 2, 3},
}

// The bulk halves run a kernel over the leading groups of four and return
// where its Go loop takes over.

func countDigitsBulk(vec []float64, hist *[1 << DigitBits]uint32) (int, uint64) {
	n := len(vec) &^ 3
	if !useAVX2 || n == 0 {
		return 0, 0
	}
	return n, countAVX2(&vec[0], n, &hist[0])
}

func addCountBulk(sum, vec []float64, hist *[1 << DigitBits]uint32) (int, uint64) {
	n := len(sum) &^ 3
	if !useAVX2 || n == 0 {
		return 0, 0
	}
	_ = vec[n-1]
	return n, addCountAVX2(&sum[0], &vec[0], n, &hist[0])
}

func keepFromBulk(at []int32, vec []float64, digit uint64) (n, done int) {
	groups, stop := len(vec)/4, len(at)-4
	if !useAVX2 || groups == 0 || stop < 0 {
		return 0, 0
	}
	return keepFromAVX2(&at[0], &vec[0], stop, groups, digit)
}
