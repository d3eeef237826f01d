package nn

import (
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

// logZRows is how many rows' logZ one tensor.SoftmaxRows call hands back
// (the loss is a stateless value type, so they sit in a stack array).
const logZRows = 32

// addRows is the loss's one per-row loop: total plus each row's
// logZ - logit[label], and into a non-nil dOut the gradient of the mean
// loss of a batch whose 1/rows is invB. Per row: mx = the row's maximum,
// sum = exp(v - mx) added left to right from 0, logZ = mx + log(sum), and
// d[j] = exp(v[j] - logZ) * invB, less invB at the label. tensor.SoftmaxRows
// computes logZ and d (four rows per register on the AVX2 tier, the scalar
// loop elsewhere, the same bits on both); total and the labels' -= invB stay
// here, in row order.
func (SoftmaxCrossEntropy) addRows(total float64, out *tensor.Matrix, b data.Batch, dOut *tensor.Matrix, invB float64) float64 {
	if len(b.Y) != out.Rows {
		panic("nn: SoftmaxCrossEntropy needs classification labels")
	}
	cols := out.Cols
	var logZ [logZRows]float64
	for lo := 0; lo < out.Rows; lo += logZRows {
		rows := min(logZRows, out.Rows-lo)
		x := out.Data[lo*cols : (lo+rows)*cols]
		var d []float64
		if dOut != nil {
			d = dOut.Data[lo*cols : (lo+rows)*cols]
		}
		tensor.SoftmaxRows(logZ[:rows], d, x, cols, invB)
		for r, y := range b.Y[lo : lo+rows] {
			total += logZ[r] - x[r*cols : (r+1)*cols][y]
			if d != nil {
				d[r*cols+y] -= invB
			}
		}
	}
	return total
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
