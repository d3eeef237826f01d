package nn

import (
	"math"

	"repro/internal/data"
	"repro/internal/tensor"
)

// SoftmaxCrossEntropy is the standard classification loss over logits,
// computed with the log-sum-exp trick for numerical stability.
type SoftmaxCrossEntropy struct{}

// Eval implements Loss. Targets come from b.Y.
func (l SoftmaxCrossEntropy) Eval(out *tensor.Matrix, b data.Batch, dOut *tensor.Matrix) float64 {
	invB := 1 / float64(out.Rows)
	return l.addRows(0, out, b, dOut, invB) * invB
}

// AddRows implements Loss.
func (l SoftmaxCrossEntropy) AddRows(total float64, out *tensor.Matrix, b data.Batch) float64 {
	return l.addRows(total, out, b, nil, 0)
}

// The softmax's exps go through tensor.ExpInto a block of rows at a time,
// staged in stack tiles (the loss is a stateless value type): as many whole
// rows as fit in lossTile elements, at most lossRows of them, or one row
// wider than the tile in tile-sized pieces. ExpInto is math.Exp bit for bit
// and every sum, logZ and gradient element is the per-row expression of the
// scalar loop, in its order — so the tiles are invisible in every bit.
const lossTile, lossRows = 256, 32

// addRows is the loss's one per-row loop: total plus each row's
// logZ - logit[label], and into a non-nil dOut the gradient of the mean
// loss of a batch whose 1/rows is invB. Per row: mx = the row's maximum,
// sum = exp(v - mx) added left to right from 0, logZ = mx + log(sum), and
// d[j] = exp(v[j] - logZ) * invB, less invB at the label.
func (SoftmaxCrossEntropy) addRows(total float64, out *tensor.Matrix, b data.Batch, dOut *tensor.Matrix, invB float64) float64 {
	if len(b.Y) != out.Rows {
		panic("nn: SoftmaxCrossEntropy needs classification labels")
	}
	cols := out.Cols
	step := min(lossRows, max(1, lossTile/max(cols, 1)))
	var tile [lossTile]float64
	var shift, sum [lossRows]float64 // per row of the block: mx, then logZ; the exp sum
	for lo := 0; lo < out.Rows; lo += step {
		rows := min(step, out.Rows-lo)
		blk := out.Data[lo*cols : (lo+rows)*cols]
		for r := range rows {
			row := blk[r*cols : (r+1)*cols]
			mx := row[0]
			for _, v := range row[1:] {
				if v > mx {
					mx = v
				}
			}
			shift[r], sum[r] = mx, 0
		}
		for p := 0; p < len(blk); p += lossTile {
			e := expShifted(&tile, blk, p, cols, &shift)
			for k := 0; k < len(e); {
				r := (p + k) / cols
				end := min(len(e), (r+1)*cols-p)
				s := sum[r]
				for _, v := range e[k:end] {
					s += v
				}
				sum[r] = s
				k = end
			}
		}
		for r := range rows {
			shift[r] += math.Log(sum[r])
			total += shift[r] - blk[r*cols : (r+1)*cols][b.Y[lo+r]]
		}
		if dOut == nil {
			continue
		}
		d := dOut.Data[lo*cols : (lo+rows)*cols]
		for p := 0; p < len(blk); p += lossTile {
			for k, v := range expShifted(&tile, blk, p, cols, &shift) {
				d[p+k] = v * invB
			}
		}
		for r := range rows {
			d[r*cols : (r+1)*cols][b.Y[lo+r]] -= invB
		}
	}
	return total
}

// expShifted fills tile with exp(blk[p+k] - shift[row of p+k]) from k = 0 to
// the end of the tile or of blk, and returns the part it filled.
func expShifted(tile *[lossTile]float64, blk []float64, p, cols int, shift *[lossRows]float64) []float64 {
	t := tile[:min(lossTile, len(blk)-p)]
	for k := 0; k < len(t); {
		r := (p + k) / cols
		end := min(len(t), (r+1)*cols-p)
		s := shift[r]
		for i, v := range blk[p+k : p+end] {
			t[k+i] = v - s
		}
		k = end
	}
	tensor.ExpInto(t, t)
	return t
}

// MSE is mean squared error over a scalar (1-D) network output against
// regression targets: mean over the batch of (out - t)^2 / 2.
type MSE struct{}

// Eval implements Loss. Targets come from b.T.
func (l MSE) Eval(out *tensor.Matrix, b data.Batch, dOut *tensor.Matrix) float64 {
	invB := 1 / float64(out.Rows)
	return l.addRows(0, out, b, dOut, invB) * invB
}

// AddRows implements Loss.
func (l MSE) AddRows(total float64, out *tensor.Matrix, b data.Batch) float64 {
	return l.addRows(total, out, b, nil, 0)
}

// addRows is the loss's one per-row loop: total plus each row's
// (out - t)^2 / 2, and into a non-nil dOut the gradient of the mean loss of a
// batch whose 1/rows is invB.
func (MSE) addRows(total float64, out *tensor.Matrix, b data.Batch, dOut *tensor.Matrix, invB float64) float64 {
	if len(b.T) != out.Rows {
		panic("nn: MSE needs regression targets")
	}
	if out.Cols != 1 {
		panic("nn: MSE expects a scalar output head")
	}
	for i := 0; i < out.Rows; i++ {
		diff := out.At(i, 0) - b.T[i]
		total += 0.5 * diff * diff
		if dOut != nil {
			dOut.Row(i)[0] = diff * invB
		}
	}
	return total
}
