package tensor

import (
	"fmt"
	"math"
)

// SoftmaxRows takes each row v of the row-major block x — len(logZ) rows of
// cols > 0 logits — to logZ = mx + log(sum), mx the row's maximum by `v > mx`
// from v[0] and sum the exp(v[j] - mx) added from +0 in column order, and,
// into a non-nil d shaped like x, to d[j] = exp(v[j] - logZ) * scale. The
// values are softmaxGo's, math.Exp and math.Log included, bit for bit; where
// the AVX2 tier runs, four rows share each register (softmax_amd64.s; the
// package comment states the contract, the FMA trap and the domain
// fallback). It panics unless x holds len(logZ) rows of cols and d is nil or
// as long as x.
func SoftmaxRows(logZ, d, x []float64, cols int, scale float64) {
	if cols < 1 || len(x) != len(logZ)*cols || d != nil && len(d) != len(x) {
		panic(fmt.Sprintf("tensor: SoftmaxRows shape mismatch: %d logits, %d rows of %d, %d gradients", len(x), len(logZ), cols, len(d)))
	}
	r := softmaxBulk(logZ, d, x, cols, scale)
	if d != nil {
		d = d[r*cols:]
	}
	softmaxGo(logZ[r:], d, x[r*cols:], cols, scale)
}

// softmaxGo is the kernel's fallback, the finisher of every group of rows
// the kernel declines, and its oracle: the loss's per-row scalar loop.
func softmaxGo(logZ, d, x []float64, cols int, scale float64) {
	for r := range logZ {
		row := x[r*cols : (r+1)*cols]
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - mx)
		}
		lz := mx + math.Log(sum)
		logZ[r] = lz
		if d != nil {
			dr := d[r*cols : (r+1)*cols]
			for j, v := range row {
				dr[j] = math.Exp(v-lz) * scale
			}
		}
	}
}
