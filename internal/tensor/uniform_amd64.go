//go:build amd64 && !purego

package tensor

// uniformsAVX2 is uniformsGo over n > 0 draws, n a multiple of 4; it reads
// and writes the 32 bytes of s and stores 8n bytes of dst, nothing past them.
//
//go:noescape
func uniformsAVX2(dst *float64, n int, s *[4]uint64)

// uniformsBulk runs the kernel over the leading multiple of four draws and
// returns how many that was (the reluBulk shape).
func uniformsBulk(dst []float64, s *[4]uint64) int {
	n := len(dst) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	uniformsAVX2(&dst[0], n, s)
	return n
}
