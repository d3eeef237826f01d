package rng

import (
	"fmt"
	"math"
)

// Distribution is a one-dimensional probability distribution from which the
// simulator draws local-step compute times Y and communication delays D.
// Mean returns the analytic first moment, which the runtime analysis (paper
// Sec 3.1) compares against Monte-Carlo estimates.
type Distribution interface {
	Sample(r *Rand) float64
	Mean() float64
	String() string
}

// Constant is a degenerate distribution: every sample equals Value.
// The paper's speed-up formula (eq 12) assumes constant Y and D.
type Constant struct{ Value float64 }

// Sample returns Value.
func (c Constant) Sample(*Rand) float64 { return c.Value }

// Mean returns Value.
func (c Constant) Mean() float64 { return c.Value }

func (c Constant) String() string { return fmt.Sprintf("Constant(%g)", c.Value) }

// Exponential has mean MeanVal (rate 1/MeanVal). The paper's straggler
// analysis (Sec 3.2) models Y as exponential with mean y, so that
// E[max of m] = y * H_m grows logarithmically in m.
type Exponential struct{ MeanVal float64 }

// Sample draws an exponential with mean MeanVal.
func (e Exponential) Sample(r *Rand) float64 { return e.MeanVal * r.ExpFloat64() }

// Mean returns the mean.
func (e Exponential) Mean() float64 { return e.MeanVal }

func (e Exponential) String() string { return fmt.Sprintf("Exp(mean=%g)", e.MeanVal) }

// ShiftedExponential is Shift + Exponential(mean Scale): a deterministic
// minimum compute time plus an exponential tail. This is the standard model
// for "mostly steady workers with occasional slowdowns".
type ShiftedExponential struct {
	Shift float64 // deterministic floor, >= 0
	Scale float64 // mean of the exponential part
}

// Sample draws Shift + Exp(Scale).
func (s ShiftedExponential) Sample(r *Rand) float64 { return s.Shift + s.Scale*r.ExpFloat64() }

// Mean returns Shift + Scale.
func (s ShiftedExponential) Mean() float64 { return s.Shift + s.Scale }

func (s ShiftedExponential) String() string {
	return fmt.Sprintf("ShiftedExp(shift=%g,scale=%g)", s.Shift, s.Scale)
}

// Pareto is a heavy-tailed distribution with scale Xm > 0 and shape
// Alpha > 0. Used in straggler ablations: with Alpha <= 2 the variance is
// infinite and periodic averaging's tail-smoothing advantage is largest.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample draws a Pareto(Xm, Alpha) value by inverse CDF.
func (p Pareto) Sample(r *Rand) float64 {
	u := 1 - r.Float64() // in (0, 1]
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Mean returns alpha*xm/(alpha-1) for Alpha > 1, +Inf otherwise.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

func (p Pareto) String() string { return fmt.Sprintf("Pareto(xm=%g,alpha=%g)", p.Xm, p.Alpha) }
