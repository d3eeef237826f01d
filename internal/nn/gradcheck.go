package nn

import (
	"math"

	"repro/internal/data"
)

// GradCheck compares the network's analytic gradient against central finite
// differences on the given batch. It returns the maximum relative error over
// all parameters. Used by the test suite to certify every layer's backward
// pass — the reproduction depends on exact gradients, since AdaComm's
// update rule consumes the true training loss.
//
// The differences are taken with Loss, which runs the batch through the
// layers evalChunk rows at a time, and the analytic gradient with LossGrad's
// forward over the whole batch, so the check first holds the two to each
// other: at the unperturbed parameters they must report the same loss bit
// for bit, or the result is +Inf, which no tolerance passes.
func GradCheck(n *Network, b data.Batch, eps float64) float64 {
	params := n.Params()
	analytic := make([]float64, n.ParamLen())
	if trained := n.LossGrad(b, analytic); math.Float64bits(n.Loss(b)) != math.Float64bits(trained) {
		return math.Inf(1)
	}

	worst := 0.0
	for i := range params {
		orig := params[i]
		params[i] = orig + eps
		lossPlus := n.Loss(b)
		params[i] = orig - eps
		lossMinus := n.Loss(b)
		params[i] = orig

		numeric := (lossPlus - lossMinus) / (2 * eps)
		scale := math.Max(1e-8, math.Abs(analytic[i])+math.Abs(numeric))
		rel := math.Abs(analytic[i]-numeric) / scale
		if rel > worst {
			worst = rel
		}
	}
	return worst
}
