package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/bound"
	"repro/internal/delaymodel"
	"repro/internal/rng"
)

// ---------------------------------------------------------------------------
// Figure 4: speed-up of PASGD over fully synchronous SGD (eq 12).
// ---------------------------------------------------------------------------

// Fig4Row is one (alpha, tau) point of the speed-up surface.
type Fig4Row struct {
	Alpha   float64
	Tau     int
	Speedup float64
}

// Fig4 evaluates eq 12 for the paper's three alpha values over tau=1..100.
func Fig4() []Fig4Row {
	var rows []Fig4Row
	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		for tau := 1; tau <= 100; tau++ {
			rows = append(rows, Fig4Row{
				Alpha: alpha, Tau: tau,
				Speedup: delaymodel.SpeedupConstant(alpha, tau),
			})
		}
	}
	return rows
}

// PrintFig4 renders the asymptotic speed-ups (the figure's right edge).
func PrintFig4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "== Fig 4: speedup over fully synchronous SGD (eq 12) ==")
	fmt.Fprintln(w, "alpha    tau=1    tau=10   tau=50   tau=100")
	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		fmt.Fprintf(w, "%5.2f", alpha)
		for _, tau := range []int{1, 10, 50, 100} {
			for _, r := range rows {
				if r.Alpha == alpha && r.Tau == tau {
					fmt.Fprintf(w, " %8.4f", r.Speedup)
				}
			}
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// Figure 5: runtime-per-iteration distribution under exponential compute
// times (y=1, D=1, m=16): sync SGD vs PASGD tau=10.
// ---------------------------------------------------------------------------

// Fig5Result carries the two empirical distributions and their means.
type Fig5Result struct {
	SyncHist *rng.Histogram
	PAvgHist *rng.Histogram
	SyncMean float64
	PAvgMean float64
	Trials   int
	// Bytes/Bandwidth record the broadcast payload and per-link rate the
	// samples were priced with (both 0 for the paper's size-free model).
	Bytes     int
	Bandwidth float64
}

// Fig5Bytes Monte-Carlo samples both distributions with the paper's
// parameters on a bandwidth-constrained link: every broadcast is charged the
// size-aware cost of a `bytes` payload against the given per-link bandwidth
// (delaymodel.SampleRoundBytes at tau = 1, and at tau = 10 divided by 10).
// bytes = 0 is the paper's size-free figure.
func Fig5Bytes(trials int, seed uint64, bytes int, bandwidth float64) Fig5Result {
	dm := delaymodel.New(16, rng.Exponential{MeanVal: 1}, rng.Constant{Value: 1},
		delaymodel.ConstantScaling{})
	dm.Bandwidth = bandwidth
	r := rng.New(seed)
	// Widen the histogram range to keep the heavier size-aware tail visible.
	hi := 8.0
	if bandwidth > 0 && bytes > 0 {
		hi += float64(bytes) / bandwidth
	}
	res := Fig5Result{
		SyncHist:  rng.NewHistogram(0, hi, 40),
		PAvgHist:  rng.NewHistogram(0, hi, 40),
		Trials:    trials,
		Bytes:     bytes,
		Bandwidth: bandwidth,
	}
	for t := 0; t < trials; t++ {
		s := dm.SampleRoundBytes(1, r, bytes)
		p := dm.SampleRoundBytes(10, r, bytes) / 10
		res.SyncHist.Add(s)
		res.PAvgHist.Add(p)
		res.SyncMean += s
		res.PAvgMean += p
	}
	res.SyncMean /= float64(trials)
	res.PAvgMean /= float64(trials)
	return res
}

// PrintFig5 renders the distributions as an ASCII density table.
func PrintFig5(w io.Writer, res Fig5Result) {
	fmt.Fprintln(w, "== Fig 5: runtime/iteration distribution (m=16, y=1, D=1) ==")
	if res.Bytes > 0 && res.Bandwidth > 0 {
		fmt.Fprintf(w, "broadcast payload:   %d bytes @ %g B/s (+%.3f s/transfer)\n",
			res.Bytes, res.Bandwidth, float64(res.Bytes)/res.Bandwidth)
	}
	fmt.Fprintf(w, "mean sync SGD:       %.4f\n", res.SyncMean)
	fmt.Fprintf(w, "mean PASGD(tau=10):  %.4f\n", res.PAvgMean)
	fmt.Fprintf(w, "mean ratio:          %.2fx less\n", res.SyncMean/res.PAvgMean)
	fmt.Fprintln(w, "bin-center  p(sync)  p(pasgd)")
	for i := 0; i < len(res.SyncHist.Counts); i += 2 {
		fmt.Fprintf(w, "%9.2f  %7.4f  %8.4f\n",
			res.SyncHist.BinCenter(i), res.SyncHist.Density(i), res.PAvgHist.Density(i))
	}
}

// ---------------------------------------------------------------------------
// Figure 6: Theorem 1 error bound versus wall-clock time.
// ---------------------------------------------------------------------------

// Fig6Curve is one bound-vs-time learning curve.
type Fig6Curve struct {
	Tau    int
	Times  []float64
	Values []float64
}

// Fig6Constants returns the exact constants under the figure (paper: F1=1,
// Finf=0, eta=0.08, L=1, sigma^2=1, with the Fig 5 delay parameters m=16,
// Y=1, D=1).
func Fig6Constants() bound.Constants {
	return bound.Constants{F1: 1, Finf: 0, Eta: 0.08, L: 1, Sigma2: 1, M: 16, Y: 1, D: 1}
}

// SizeAwareConstants charges the bound constants' broadcast delay D the
// size-aware transfer term bytes/bandwidth — the theory-side counterpart of
// the *Bytes Monte-Carlo drivers, used to regenerate the Fig 6/7 bound
// curves for a bandwidth-constrained link. A zero payload or bandwidth
// returns c unchanged.
func SizeAwareConstants(c bound.Constants, bytes int, bandwidth float64) bound.Constants {
	if bytes > 0 && bandwidth > 0 {
		c.D += float64(bytes) / bandwidth
	}
	return c
}

// Fig6 samples the bound curves for tau=1 (sync SGD) and tau=10.
func Fig6(points int) []Fig6Curve {
	c := Fig6Constants()
	var out []Fig6Curve
	for _, tau := range []int{1, 10} {
		times, vals := c.Curve(tau, 4000, points)
		out = append(out, Fig6Curve{Tau: tau, Times: times, Values: vals})
	}
	return out
}

// PrintFig6 renders selected points of both curves and the crossover.
func PrintFig6(w io.Writer, curves []Fig6Curve) {
	fmt.Fprintln(w, "== Fig 6: Theorem-1 bound vs runtime (eta=0.08, L=1, sigma2=1, m=16) ==")
	c := Fig6Constants()
	fmt.Fprintln(w, "time      bound(tau=1)  bound(tau=10)")
	for _, frac := range []float64{0.05, 0.1, 0.25, 0.5, 1.0} {
		T := 4000 * frac
		fmt.Fprintf(w, "%7.0f  %12.4f  %13.4f\n",
			T, c.ErrorAtTime(T, 1), c.ErrorAtTime(T, 10))
	}
	fmt.Fprintf(w, "crossover time (tau=10 vs tau=1): %.1f\n", c.CrossoverTime(10, 1))
	fmt.Fprintf(w, "error floors: tau=1 %.4f, tau=10 %.4f\n", c.ErrorFloor(1), c.ErrorFloor(10))
}

// ---------------------------------------------------------------------------
// Figure 7: per-interval best tau (the adaptive schedule, from theory).
// ---------------------------------------------------------------------------

// Fig7Result is the sequence of per-interval optimal communication periods
// chosen by minimizing the Theorem-1 bound over each wall-clock interval —
// the idealized version of AdaComm sketched in Fig 7(b).
type Fig7Result struct {
	IntervalLen float64
	TauStars    []int     // best tau per interval (grid-argmin of the bound)
	TauFormula  []float64 // eq 16's closed form at each interval start
}

// Fig7 computes both the grid-argmin and the closed-form tau* for a run of
// `intervals` intervals of length T0, with bound constants c. The loss at
// the start of each interval is taken from the bound of the previous
// interval's choice (a self-consistent forward simulation of the theory).
func Fig7(c bound.Constants, t0 float64, intervals, tauGrid int) Fig7Result {
	res := Fig7Result{IntervalLen: t0}
	cur := c
	for l := 0; l < intervals; l++ {
		// Closed form (eq 16) with the current "restart" loss.
		res.TauFormula = append(res.TauFormula, cur.OptimalTau(t0))
		// Grid argmin of the bound at the end of this interval.
		best, bestVal := 1, math.Inf(1)
		for tau := 1; tau <= tauGrid; tau++ {
			if v := cur.ErrorAtTime(t0, tau); v < bestVal {
				best, bestVal = tau, v
			}
		}
		res.TauStars = append(res.TauStars, best)
		// Restart: the next interval begins from the achieved error level.
		// The bound is on gradient norm; use it as a proxy for the
		// remaining objective gap, scaled into F-units.
		next := cur
		next.F1 = math.Max(cur.Finf, bestVal)
		cur = next
	}
	return res
}

// PrintFig7 renders the schedule.
func PrintFig7(w io.Writer, res Fig7Result) {
	fmt.Fprintln(w, "== Fig 7: theory-driven adaptive schedule (best tau per interval) ==")
	fmt.Fprintln(w, "interval  tau*(grid)  tau*(eq 16)")
	for i, tau := range res.TauStars {
		fmt.Fprintf(w, "%8d  %10d  %11.2f\n", i, tau, res.TauFormula[i])
	}
}

// ---------------------------------------------------------------------------
// Figure 8: computation vs communication wall-clock for 100 iterations.
// ---------------------------------------------------------------------------

// Fig8Bytes measures the compute/communication breakdown of 100 iterations
// for both architecture profiles at tau=1 and tau=10 with m workers, on
// bandwidth-constrained links: each profile is constrained to the given
// per-link bandwidth and every broadcast charged a `bytes` payload
// (delaymodel.MeasureBreakdownBytes), which is where large tau's
// amortization of the transfer term shows up in the comm bars. bytes = 0
// with bandwidth = 0 is the paper's size-free figure.
func Fig8Bytes(m int, seed uint64, bytes int, bandwidth float64) []delaymodel.Breakdown {
	r := rng.New(seed)
	var rows []delaymodel.Breakdown
	for _, p := range []delaymodel.Profile{delaymodel.ResNet50Profile(), delaymodel.VGG16Profile()} {
		// Constrain (and relabel) only when there is a payload to price: with
		// bytes = 0 the sampler ignores bandwidth, and a "@B/s" label over
		// size-free numbers would misrepresent the run.
		if bandwidth > 0 && bytes > 0 {
			p = p.Constrained(bandwidth)
		}
		for _, tau := range []int{1, 10} {
			rows = append(rows, delaymodel.MeasureBreakdownBytes(p, m, tau, 100, r, bytes))
		}
	}
	return rows
}

// PrintFig8 renders the stacked-bar data.
func PrintFig8(w io.Writer, rows []delaymodel.Breakdown) {
	fmt.Fprintln(w, "== Fig 8: wall-clock for 100 iterations, compute vs comm (m=4) ==")
	for _, b := range rows {
		fmt.Fprintln(w, b.String())
	}
}
