//go:build amd64 && !purego

package tensor

// polarAVX2 is polarGo over n > 0 draws, n a multiple of 4; a group reads 32
// bytes of u and of s and stores 32 of dst.
//
//go:noescape
func polarAVX2(dst, u, s *float64, n int)

// polarConst is the kernel's constant table, one value per row in all four
// lanes so a row is a packed memory operand (fifteen constants do not fit in
// registers beside the working set). Rows 0-3 and 13 are loaded once; the
// kernel addresses rows by number, so the order is part of its text. The
// values are log_amd64.s's #defines, digit for digit.
var polarConst = [14][4]float64{
	0:  {0.5, 0.5, 0.5, 0.5},
	1:  {hSqrt2, hSqrt2, hSqrt2, hSqrt2},
	2:  {1, 1, 1, 1},
	3:  {2, 2, 2, 2},
	4:  {logL7, logL7, logL7, logL7},
	5:  {logL5, logL5, logL5, logL5},
	6:  {logL3, logL3, logL3, logL3},
	7:  {logL1, logL1, logL1, logL1},
	8:  {logL6, logL6, logL6, logL6},
	9:  {logL4, logL4, logL4, logL4},
	10: {logL2, logL2, logL2, logL2},
	11: {ln2Lo, ln2Lo, ln2Lo, ln2Lo},
	12: {ln2Hi, ln2Hi, ln2Hi, ln2Hi},
	13: {-2, -2, -2, -2},
}

const (
	hSqrt2 = 7.07106781186547524401e-01 // sqrt(2)/2
	ln2Hi  = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
	ln2Lo  = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
	logL1  = 6.666666666666735130e-01   // 0x3FE5555555555593
	logL2  = 3.999999999940941908e-01   // 0x3FD999999997FA04
	logL3  = 2.857142874366239149e-01   // 0x3FD2492494229359
	logL4  = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
	logL5  = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
	logL6  = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
	logL7  = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244
)

// polarBulk runs the kernel over the leading multiple of four draws and
// returns how many that was (the reluBulk shape).
func polarBulk(dst, u, s []float64) int {
	n := len(s) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	polarAVX2(&dst[0], &u[0], &s[0], n)
	return n
}
