//go:build amd64 && !purego

package tensor

// useFMA picks which of math.archExp's two paths the exp kernel mirrors. It
// must equal package math's own useFMA (cpu.X86.HasAVX && cpu.X86.HasFMA),
// so probeFMA asks the CPU what internal/cpu asks it. Set once, here; only
// tests assign it again, to run the path this host does not take.
var useFMA = probeFMA()

// probeFMA reports AVX and FMA with the OS saving YMM state: CPUID.1:ECX
// OSXSAVE, AVX and FMA, then XCR0 bits 1-2 — internal/cpu's test, bit for
// bit. (internal/cpu also honours GODEBUG=cpu.avx=off and cpu.fma=off; this
// probe does not, so under those settings ExpInto's lanes can differ from
// math.Exp in the last bit.)
func probeFMA() bool {
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	return xgetbv()&6 == 6
}

// expAVX2 is expGo over the groups of four of n > 0 elements, n a multiple
// of 4, on archExp's fused path when fma is set: it stops before the first
// group holding a lane outside [expLo, expHi] (NaN included), writes nothing
// of that group, and returns how many elements it wrote.
//
//go:noescape
func expAVX2(dst, src *float64, n int, fma bool) int

// expLo and expHi bound the kernel's domain. Inside it archExp takes neither
// of its early exits (x not finite, x > 7.09782712893384e+02) and k =
// round(x*Log2e) lies in [-1021, 1023], so 2^k is normal and so is the
// result: the scaling is one multiply by the power of two whose exponent
// field is k+0x3FF, archExp's lastStep.
const expLo, expHi = -708, 709

// expConst is the kernel's constant table, one value per row in all four
// lanes so a row is a packed memory operand; rows 0 and 11-14 are loaded once.
// The kernel addresses rows by number, so the order is part of its text. The
// values are exp_amd64.s's #defines and exprodata, digit for digit.
var expConst = [15][4]float64{
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
	14: {expHi, expHi, expHi, expHi},
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

// expBulk runs the kernel over the leading multiple of four elements and
// returns how many that was; a group the kernel declines goes to math.Exp
// whole, and the kernel resumes after it.
func expBulk(dst, src []float64) int {
	n := len(src) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	_ = dst[n-1]
	for i := 0; i < n; i += 4 {
		if i += expAVX2(&dst[i], &src[i], n-i, useFMA); i < n {
			expGo(dst[i:i+4], src[i:i+4])
		}
	}
	return n
}
