package tensor

import (
	"fmt"
	"math"
)

// ExpInto writes dst[i] = math.Exp(src[i]) for every i: the same bits, four
// lanes at a time where the AVX2 tier runs (exp_amd64.s; the package comment
// states the contract, the FMA trap and the domain fallback). dst and src
// may be the same slice but must not otherwise overlap. It panics unless the
// two have one length.
func ExpInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: ExpInto length mismatch %d vs %d", len(dst), len(src)))
	}
	n := expBulk(dst, src)
	expGo(dst[n:], src[n:])
}

// expGo is the kernel's fallback, the finisher of the len % 4 elements and of
// every group with a lane outside the kernel's domain, and its oracle.
func expGo(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Exp(v)
	}
}
