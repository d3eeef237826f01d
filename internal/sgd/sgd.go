// Package sgd provides mini-batch SGD building blocks: learning-rate
// schedules (constant, multi-step — the paper decays by 10x at the
// 80/120/160/200-epoch marks), and estimators of the stochastic-gradient
// variance sigma^2 and the Lipschitz constant L that Theorem 1 and the tau*
// formula consume. The update rules themselves (plain SGD, momentum,
// Nesterov, Local Adam) live in internal/opt.
package sgd

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Schedule maps an epoch index to a learning rate.
type Schedule interface {
	// LR returns the learning rate in effect at the given (0-based) epoch.
	LR(epoch int) float64
	String() string
}

// Const is a fixed learning rate.
type Const struct{ Eta float64 }

// LR implements Schedule.
func (c Const) LR(int) float64 { return c.Eta }

func (c Const) String() string { return fmt.Sprintf("const(%g)", c.Eta) }

// MultiStep decays the base rate by Factor at each listed epoch milestone —
// the paper's "decay by 10 after 80/120/160/200 epochs" schedule.
type MultiStep struct {
	Eta        float64
	Factor     float64
	Milestones []int
}

// LR implements Schedule.
func (m MultiStep) LR(epoch int) float64 {
	lr := m.Eta
	for _, ms := range m.Milestones {
		if epoch >= ms {
			lr *= m.Factor
		}
	}
	return lr
}

func (m MultiStep) String() string {
	return fmt.Sprintf("multistep(%g x%g at %v)", m.Eta, m.Factor, m.Milestones)
}

// EstimateGradientVariance estimates sigma^2 = E||g(x) - grad F(x)||^2 at
// the model's current parameters, using the full-batch gradient as the
// ground truth and `trials` mini-batches. This is the sigma^2 that enters
// the tau* formula (paper eq 14); the paper sidesteps estimating it via the
// ratio rule (eq 17), but the repo exposes it so internal/bound's Theorem 1
// can be held against measured runs.
func EstimateGradientVariance(model *nn.Network, ds *data.Dataset, batchSize, trials int, sampler *data.Sampler) float64 {
	full := data.FullBatch(ds)
	exact := make([]float64, model.ParamLen())
	model.LossGrad(full, exact)

	g := make([]float64, model.ParamLen())
	diff := make([]float64, model.ParamLen())
	total := 0.0
	for t := 0; t < trials; t++ {
		b := sampler.Next()
		model.LossGrad(b, g)
		tensor.Sub(diff, g, exact)
		total += tensor.Dot(diff, diff)
	}
	return total / float64(trials)
}

// EstimateLipschitz crudely estimates the gradient-Lipschitz constant L by
// sampling parameter perturbations and measuring ||grad F(x+d)-grad F(x)||
// over ||d||. It is a lower bound in general but adequate for setting the
// eta*L ~ 1 heuristic the paper invokes for rule (20).
func EstimateLipschitz(model *nn.Network, b data.Batch, perturb float64, trials int, next func() float64) float64 {
	n := model.ParamLen()
	base := append([]float64(nil), model.Params()...)
	g0 := make([]float64, n)
	model.LossGrad(b, g0)

	g1 := make([]float64, n)
	d := make([]float64, n)
	worst := 0.0
	for t := 0; t < trials; t++ {
		for i := range d {
			d[i] = perturb * next()
		}
		tensor.Add(model.Params(), base, d)
		model.LossGrad(b, g1)
		tensor.Sub(g1, g1, g0)
		if dn := tensor.Norm2(d); dn > 0 {
			if ratio := tensor.Norm2(g1) / dn; ratio > worst {
				worst = ratio
			}
		}
	}
	model.SetParams(base)
	return worst
}
