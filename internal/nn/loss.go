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

// addRows is the loss's one per-row loop: total plus each row's
// logZ - logit[label], and into a non-nil dOut the gradient of the mean
// loss of a batch whose 1/rows is invB.
func (SoftmaxCrossEntropy) addRows(total float64, out *tensor.Matrix, b data.Batch, dOut *tensor.Matrix, invB float64) float64 {
	if len(b.Y) != out.Rows {
		panic("nn: SoftmaxCrossEntropy needs classification labels")
	}
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
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
		logZ := mx + math.Log(sum)
		total += logZ - row[b.Y[i]]
		if dOut != nil {
			d := dOut.Row(i)
			for j, v := range row {
				d[j] = math.Exp(v-logZ) * invB
			}
			d[b.Y[i]] -= invB
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
			dOut.Set(i, 0, diff*invB)
		}
	}
	return total
}
