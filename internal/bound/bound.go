// Package bound implements the paper's theory: the Theorem 1 error-runtime
// upper bound for PASGD and the Theorem 2 optimal communication period
// tau*. These are the formulas AdaComm's update rules are derived from, and
// Fig 6 / Fig 7 are plotted directly from them.
package bound

import "math"

// Constants bundles the problem constants that appear in Theorems 1-2.
type Constants struct {
	F1     float64 // initial objective value F(x_1)
	Finf   float64 // lower bound on the objective
	Eta    float64 // learning rate
	L      float64 // gradient Lipschitz constant
	Sigma2 float64 // mini-batch gradient variance bound sigma^2
	M      int     // number of workers
	Y      float64 // (constant) local-step compute time
	D      float64 // (constant) broadcast delay
}

// ErrorAtTime evaluates the Theorem 1 bound (eq 13) on the minimal expected
// squared gradient norm after total wall-clock time T with communication
// period tau:
//
//	2(F1-Finf)/(eta*T) * (Y + D/tau)  +  eta*L*sigma^2/m  +  eta^2*L^2*sigma^2*(tau-1)
//
// The first term is the optimization (transient) term — note it carries the
// runtime-per-iteration factor, which is how wall-clock enters — and the
// last two form the noise floor.
func (c Constants) ErrorAtTime(T float64, tau int) float64 {
	if tau < 1 {
		panic("bound: tau must be >= 1")
	}
	if T <= 0 {
		return math.Inf(1)
	}
	t := float64(tau)
	transient := 2 * (c.F1 - c.Finf) / (c.Eta * T) * (c.Y + c.D/t)
	floor := c.Eta*c.L*c.Sigma2/float64(c.M) + c.Eta*c.Eta*c.L*c.L*c.Sigma2*(t-1)
	return transient + floor
}

// ErrorFloor returns the T -> infinity limit of the bound: the noise floor
// eta*L*sigma^2/m + eta^2*L^2*sigma^2*(tau-1). Larger tau means a strictly
// higher floor — the "higher error floor" side of the trade-off.
func (c Constants) ErrorFloor(tau int) float64 {
	t := float64(tau)
	return c.Eta*c.L*c.Sigma2/float64(c.M) + c.Eta*c.Eta*c.L*c.L*c.Sigma2*(t-1)
}

// OptimalTau returns tau* from Theorem 2 (eq 14):
//
//	tau* = sqrt( 2(F1-Finf)*D / (eta^3 * L^2 * sigma^2 * T) )
//
// as a real number; callers round (AdaComm ceils it). Returns +Inf when the
// denominator vanishes (no noise: communicate as rarely as you like).
func (c Constants) OptimalTau(T float64) float64 {
	den := math.Pow(c.Eta, 3) * c.L * c.L * c.Sigma2 * T
	if den <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(2 * (c.F1 - c.Finf) * c.D / den)
}

// Curve samples the bound at `points` times spaced uniformly on (0, tMax],
// returning parallel slices of time and bound values — one learning curve
// of Fig 6.
func (c Constants) Curve(tau int, tMax float64, points int) (times, values []float64) {
	if points < 1 {
		panic("bound: need at least one point")
	}
	times = make([]float64, points)
	values = make([]float64, points)
	for i := 0; i < points; i++ {
		T := tMax * float64(i+1) / float64(points)
		times[i] = T
		values[i] = c.ErrorAtTime(T, tau)
	}
	return times, values
}

// CrossoverTime returns the wall-clock time at which the bound for tauA
// equals the bound for tauB (the "switch point" in Fig 7a), or NaN if the
// curves do not cross for positive time. Setting the two bounds equal and
// solving for T is linear:
//
//	2(F1-Finf)/eta * (YA + D/tauA - Y - D/tauB) / T = floor(tauB) - floor(tauA)
func (c Constants) CrossoverTime(tauA, tauB int) float64 {
	num := 2 * (c.F1 - c.Finf) / c.Eta * (c.D/float64(tauA) - c.D/float64(tauB))
	den := c.ErrorFloor(tauB) - c.ErrorFloor(tauA)
	if den == 0 {
		return math.NaN()
	}
	T := num / den
	if T <= 0 {
		return math.NaN()
	}
	return T
}
