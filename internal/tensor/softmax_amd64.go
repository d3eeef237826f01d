//go:build amd64 && !purego

package tensor

import "math"

// useFMA picks which of math.archExp's two paths the softmax kernel's exp
// mirrors: the one math.Exp takes, asked of math.Exp itself at -Ln2/2, where
// the fused path gives the correctly rounded Sqrt2/2 and the unfused one the
// float64 below it. So it follows whatever decides math's own choice — the
// CPU, GODEBUG=cpu.fma=off or cpu.avx=off, the toolchain. Set once, here;
// only tests assign it again, to run the path this host does not take.
var useFMA = math.Exp(-0.5*math.Ln2) == math.Sqrt2/2

// softmaxAVX2 is softmaxGo over groups > 0 groups of four rows, a row to a
// lane: lane 0's row of cols > 0 logits starts at x and lanes 1-3's o1, o2,
// o3 bytes on, and the next group's 32*cols bytes on. It writes logZ[0:4]
// and, where d is not nil, the gradients at the logits' offsets from d —
// only lanes [0, lanes) store: a remainder group of 1-3 rows points its
// spare lanes at the last row, which they re-read. It stops before the first
// group with an exp argument outside [expLo, expHi] (NaN included), writes
// nothing of that group, and returns how many groups it wrote. The exp is
// archExp's fused path when fma is set.
//
//go:noescape
func softmaxAVX2(x *float64, cols, groups, o1, o2, o3, lanes int, logZ, d *float64, scale float64, fma bool) int

// expLo and expHi bound the kernel's exp domain. Inside it archExp takes
// neither of its early exits (x not finite, x > 7.09782712893384e+02) and k =
// round(x*Log2e) lies in [-1021, 1023], so 2^k is normal and so is the
// result: the scaling is one multiply by the power of two whose exponent
// field is k+0x3FF, archExp's lastStep. A softmax argument is never above 0.
const expLo, expHi = -708, 709

// expConst is the kernel's exp constant table, one value per row in all four
// lanes so a row is a packed memory operand; rows 0 and 11-13 are loaded
// once. The kernel addresses rows by number, so the order is part of its
// text. The values are GOROOT's exp_amd64.s #defines and exprodata, digit for
// digit. The log's are polarConst.
var expConst = [14][4]float64{
	0:  {log2e, log2e, log2e, log2e},
	1:  {ln2U, ln2U, ln2U, ln2U},
	2:  {ln2L, ln2L, ln2L, ln2L},
	3:  {0.0625, 0.0625, 0.0625, 0.0625},
	4:  {expC8, expC8, expC8, expC8},
	5:  {expC7, expC7, expC7, expC7},
	6:  {expC6, expC6, expC6, expC6},
	7:  {expC5, expC5, expC5, expC5},
	8:  {expC4, expC4, expC4, expC4},
	9:  {expC3, expC3, expC3, expC3},
	10: {0.5, 0.5, 0.5, 0.5},
	11: {1, 1, 1, 1},
	12: {2, 2, 2, 2},
	13: {expLo, expLo, expLo, expLo},
}

const (
	log2e = 1.4426950408889634073599246810018920                  // 1/Ln2
	ln2U  = 0.69314718055966295651160180568695068359375           // upper half Ln2
	ln2L  = 0.28235290563031577122588448175013436025525412068e-12 // lower half Ln2
	expC8 = 2.4801587301587301587e-5                              // 1/8!
	expC7 = 1.9841269841269841270e-4                              // 1/7!
	expC6 = 1.3888888888888888889e-3                              // 1/6!
	expC5 = 8.3333333333333333333e-3                              // 1/5!
	expC4 = 4.1666666666666666667e-2                              // 1/4!
	expC3 = 1.6666666666666666667e-1                              // 1/3!
)

// softmaxBulk runs the kernel over every row and returns how many that was:
// whole groups of four, then the last 1-3 rows as one group whose spare lanes
// re-read the last row. A group the kernel declines goes to softmaxGo whole,
// and the kernel resumes after it.
func softmaxBulk(logZ, d, x []float64, cols int, scale float64) int {
	rows := len(logZ)
	if !useAVX2 || rows == 0 {
		return 0
	}
	step := cols * 8
	for r := 0; r < rows; {
		left := rows - r
		groups, lanes, o1, o2, o3 := left/4, 4, step, 2*step, 3*step
		if groups == 0 {
			groups, lanes = 1, left
			o1, o2, o3 = min(1, left-1)*step, min(2, left-1)*step, min(3, left-1)*step
		}
		var dr *float64
		if d != nil {
			dr = &d[r*cols]
		}
		done := softmaxAVX2(&x[r*cols], cols, groups, o1, o2, o3, lanes, &logZ[r], dr, scale, useFMA)
		r += min(4*done, left)
		if done < groups { // declined: the group at r
			n := min(4, rows-r)
			var dn []float64
			if d != nil {
				dn = d[r*cols : (r+n)*cols]
			}
			softmaxGo(logZ[r:r+n], dn, x[r*cols:(r+n)*cols], cols, scale)
			r += n
		}
	}
	return rows
}
