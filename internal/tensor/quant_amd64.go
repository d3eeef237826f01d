//go:build amd64 && !purego

package tensor

// quantAVX2 is quantizeGo over n > 0 coordinates, n a multiple of 4; a group
// stores exactly 8 bytes of levels.
//
//go:noescape
func quantAVX2(levels *int16, vec, u *float64, n int, norm, s float64)

// dequantAVX2 and accumAVX2 are dequantizeGo and accumulateGo over n > 0
// levels, n a multiple of 4; a group reads 8 bytes of levels and stores 32 of
// dst.
//
//go:noescape
func dequantAVX2(dst *float64, levels *int16, n int, norm, s float64)

//go:noescape
func accumAVX2(dst *float64, levels *int16, n int, norm, s float64)

// The bulk halves run a kernel over the leading multiple of four elements and
// return how many that was (the reluBulk shape).

func quantizeBulk(levels []int16, vec, u []float64, norm, s float64) int {
	n := len(vec) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	quantAVX2(&levels[0], &vec[0], &u[0], n, norm, s)
	return n
}

func dequantizeBulk(dst []float64, levels []int16, norm, s float64) int {
	n := len(levels) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	dequantAVX2(&dst[0], &levels[0], n, norm, s)
	return n
}

func accumulateBulk(dst []float64, levels []int16, norm, s float64) int {
	n := len(levels) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	accumAVX2(&dst[0], &levels[0], n, norm, s)
	return n
}
