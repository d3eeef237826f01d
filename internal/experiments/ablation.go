package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/delaymodel"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sgd"
)

// Ablations of AdaComm's own design choices (Sec 4.2-4.3: how tau_0 is
// picked, gamma, the LR coupling rule, the interval T0) plus the strategy
// and delay-distribution extensions. All run on the cheap logistic workload
// so a full sweep finishes in seconds.

func ablationWorkload(scale Scale) (*Workload, cluster.Config, float64) {
	w := BuildWorkload(ArchLogistic, 4, 4, scale, 301)
	budget := 2400.0
	if scale == ScaleQuick {
		budget = 800
	}
	cfg := cluster.Config{
		BatchSize:  8,
		MaxTime:    budget,
		EvalEvery:  100,
		EvalSubset: 400,
		Seed:       302,
	}
	return w, cfg, budget
}

// ---------------------------------------------------------------------------
// tau_0 grid search (Sec 4.2's "simple grid search over different tau").
// ---------------------------------------------------------------------------

// tauGridRow is one probe result of the tau_0 grid search.
type tauGridRow struct {
	Tau       int
	ProbeLoss float64 // training loss after the short probe
	Chosen    bool
}

// tauGridAblation runs the paper's tau_0 selection protocol: short trial
// runs (about two epochs) for each candidate tau, keeping the best.
func tauGridAblation(scale Scale) []tauGridRow {
	w, cfg, budget := ablationWorkload(scale)
	cfg.MaxTime = budget / 8 // short probes
	candidates := []int{1, 2, 5, 10, 20, 50, 100}
	// Probe every candidate concurrently (each probe owns its engine), then
	// replay the memoized traces through the paper's selection rule.
	probes := make([]*metrics.Trace, len(candidates))
	forEach(len(candidates), func(i int) {
		e := w.Engine(cfg)
		probes[i] = e.Run(cluster.FixedTau{Tau: candidates[i], Schedule: sgd.Const{Eta: 0.12}},
			fmt.Sprintf("tau=%d", candidates[i]))
	})
	traces := map[int]*metrics.Trace{}
	for i, tau := range candidates {
		traces[tau] = probes[i]
	}
	chosen := core.GridSearchTau0(candidates, func(tau int) *metrics.Trace { return traces[tau] })
	rows := make([]tauGridRow, 0, len(candidates))
	for _, tau := range candidates {
		rows = append(rows, tauGridRow{
			Tau: tau, ProbeLoss: traces[tau].FinalLoss(), Chosen: tau == chosen,
		})
	}
	return rows
}

// printTauGrid renders the grid-search outcome.
func printTauGrid(w io.Writer, rows []tauGridRow) {
	fmt.Fprintln(w, "== Ablation: tau_0 grid search (short probes, lowest loss wins) ==")
	fmt.Fprintf(w, "%6s %12s %s\n", "tau", "probe loss", "")
	for _, r := range rows {
		mark := ""
		if r.Chosen {
			mark = "  <-- tau_0"
		}
		fmt.Fprintf(w, "%6d %12.5f%s\n", r.Tau, r.ProbeLoss, mark)
	}
}

// ---------------------------------------------------------------------------
// gamma saturation-decay ablation (eq 18).
// ---------------------------------------------------------------------------

// gammaRow is one gamma setting's outcome.
type gammaRow struct {
	Gamma     float64
	FinalLoss float64
	FinalTau  int
}

// gammaAblation compares saturation-decay factors. gamma close to 1
// effectively disables the eq-18 refinement (tau only decreases when the
// loss ratio says so), which leaves tau stuck high on plateaus.
func gammaAblation(scale Scale) []gammaRow {
	w, cfg, budget := ablationWorkload(scale)
	gammas := []float64{0.95, 0.5, 0.25}
	rows := make([]gammaRow, len(gammas))
	forEach(len(gammas), func(i int) {
		gamma := gammas[i]
		ada := core.NewAdaComm(core.Config{
			Tau0: 32, Interval: budget / 12, Gamma: gamma,
			Schedule: sgd.Const{Eta: 0.12},
		})
		e := w.Engine(cfg)
		tr := e.Run(ada, fmt.Sprintf("gamma=%g", gamma))
		rows[i] = gammaRow{Gamma: gamma, FinalLoss: tr.FinalLoss(), FinalTau: ada.Tau()}
	})
	return rows
}

// printGammaAblation renders the gamma sweep.
func printGammaAblation(w io.Writer, rows []gammaRow) {
	fmt.Fprintln(w, "== Ablation: saturation decay factor gamma (eq 18) ==")
	fmt.Fprintf(w, "%8s %12s %10s\n", "gamma", "final loss", "final tau")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.2f %12.5f %10d\n", r.Gamma, r.FinalLoss, r.FinalTau)
	}
}

// ---------------------------------------------------------------------------
// LR-coupling rule ablation: eq 19 vs eq 20 vs none.
// ---------------------------------------------------------------------------

// couplingRow is one coupling rule's outcome under a 10x LR decay schedule.
type couplingRow struct {
	Rule      core.Coupling
	FinalLoss float64
	MaxTau    int // largest tau the controller reached
}

// couplingAblation reproduces the paper's observation that the fully
// coupled rule (19) inflates tau after LR decays (they saw tau -> 1000 and
// divergence), while the sqrt rule (20) raises tau moderately.
func couplingAblation(scale Scale) []couplingRow {
	w, cfg, budget := ablationWorkload(scale)
	sched := sgd.MultiStep{Eta: 0.12, Factor: 0.1, Milestones: []int{8, 16}}
	rules := []core.Coupling{core.NoCoupling, core.SqrtCoupling, core.FullCoupling}
	rows := make([]couplingRow, len(rules))
	forEach(len(rules), func(i int) {
		rule := rules[i]
		ada := core.NewAdaComm(core.Config{
			Tau0: 16, Interval: budget / 12, Gamma: 0.5,
			Schedule: sched, Coupling: rule,
		})
		e := w.Engine(cfg)
		tr := e.Run(ada, "coupling="+rule.String())
		maxTau := 0
		for _, p := range tr.Points {
			if p.Tau > maxTau {
				maxTau = p.Tau
			}
		}
		rows[i] = couplingRow{Rule: rule, FinalLoss: tr.FinalLoss(), MaxTau: maxTau}
	})
	return rows
}

// printCouplingAblation renders the rule comparison.
func printCouplingAblation(w io.Writer, rows []couplingRow) {
	fmt.Fprintln(w, "== Ablation: LR coupling rule (eq 19 full vs eq 20 sqrt vs none) ==")
	fmt.Fprintf(w, "%8s %12s %10s\n", "rule", "final loss", "max tau")
	for _, r := range rows {
		fmt.Fprintf(w, "%8s %12.5f %10d\n", r.Rule, r.FinalLoss, r.MaxTau)
	}
}

// ---------------------------------------------------------------------------
// Interval length T0 sensitivity.
// ---------------------------------------------------------------------------

// intervalRow is one T0 setting's outcome.
type intervalRow struct {
	T0          float64
	FinalLoss   float64
	Adaptations int // distinct tau values seen
}

// intervalAblation sweeps the adaptation interval. Too-long intervals adapt
// too rarely (behaving like fixed tau); too-short intervals are noisy but
// mostly harmless since the rule is loss-ratio based.
func intervalAblation(scale Scale) []intervalRow {
	w, cfg, budget := ablationWorkload(scale)
	divs := []float64{40, 12, 4}
	rows := make([]intervalRow, len(divs))
	forEach(len(divs), func(i int) {
		t0 := budget / divs[i]
		ada := core.NewAdaComm(core.Config{
			Tau0: 32, Interval: t0, Gamma: 0.5,
			Schedule: sgd.Const{Eta: 0.12},
		})
		e := w.Engine(cfg)
		tr := e.Run(ada, fmt.Sprintf("T0=%g", t0))
		seen := map[int]bool{}
		for _, p := range tr.Points {
			if p.Tau > 0 {
				seen[p.Tau] = true
			}
		}
		rows[i] = intervalRow{T0: t0, FinalLoss: tr.FinalLoss(), Adaptations: len(seen)}
	})
	return rows
}

// printIntervalAblation renders the T0 sweep.
func printIntervalAblation(w io.Writer, rows []intervalRow) {
	fmt.Fprintln(w, "== Ablation: adaptation interval T0 ==")
	fmt.Fprintf(w, "%10s %12s %12s\n", "T0", "final loss", "tau levels")
	for _, r := range rows {
		fmt.Fprintf(w, "%10.1f %12.5f %12d\n", r.T0, r.FinalLoss, r.Adaptations)
	}
}

// ---------------------------------------------------------------------------
// Synchronization-strategy extension: AdaComm beyond simple averaging.
// ---------------------------------------------------------------------------

// strategyRow is one mixing strategy's outcome under AdaComm control.
type strategyRow struct {
	Strategy  cluster.Strategy
	FinalLoss float64
	MinLoss   float64
}

// strategyAblation runs AdaComm on top of each synchronization strategy —
// full averaging (PASGD), ring gossip (decentralized SGD), and elastic
// averaging (EASGD) — realizing the paper's concluding remark that adaptive
// communication extends directly to those frameworks.
func strategyAblation(scale Scale) []strategyRow {
	w, cfg, budget := ablationWorkload(scale)
	strats := []cluster.Strategy{
		cluster.FullAveraging, cluster.RingGossip, cluster.ElasticAveraging,
	}
	rows := make([]strategyRow, len(strats))
	forEach(len(strats), func(i int) {
		c := cfg
		c.Strategy = strats[i]
		ada := core.NewAdaComm(core.Config{
			Tau0: 16, Interval: budget / 12, Gamma: 0.5,
			Schedule: sgd.Const{Eta: 0.12},
		})
		e := w.Engine(c)
		tr := e.Run(ada, strats[i].String())
		rows[i] = strategyRow{
			Strategy: strats[i], FinalLoss: tr.FinalLoss(), MinLoss: tr.MinLoss(),
		}
	})
	return rows
}

// printStrategyAblation renders the strategy comparison.
func printStrategyAblation(w io.Writer, rows []strategyRow) {
	fmt.Fprintln(w, "== Extension: AdaComm over full-averaging / ring-gossip / elastic ==")
	fmt.Fprintf(w, "%-20s %12s %12s\n", "strategy", "final loss", "min loss")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %12.5f %12.5f\n", r.Strategy, r.FinalLoss, r.MinLoss)
	}
}

// ---------------------------------------------------------------------------
// Delay-distribution (straggler) ablation.
// ---------------------------------------------------------------------------

// delayRow reports the runtime advantage of tau=10 over tau=1 under one
// compute-time distribution, decomposed into the communication saving and
// the straggler-mitigation saving.
type delayRow struct {
	Dist          string
	SpeedupMC     float64 // E[T_sync]/E[T_PAvg(tau=10)]
	ConstantModel float64 // eq 12 prediction (constant-Y approximation)
}

// delayAblation quantifies Sec 3.2: under heavy-tailed compute times the
// measured speedup of PASGD exceeds the constant-delay formula because
// averaging tau draws also shrinks the straggler tail.
func delayAblation(scale Scale) []delayRow {
	trials := 100000
	if scale == ScaleQuick {
		trials = 20000
	}
	r := rng.New(303)
	dists := []rng.Distribution{
		rng.Constant{Value: 1},
		rng.Exponential{MeanVal: 1},
		rng.Pareto{Xm: 0.6, Alpha: 2.5}, // mean = 1
	}
	var rows []delayRow
	for _, d := range dists {
		dm := delaymodel.New(16, d, rng.Constant{Value: 1}, delaymodel.ConstantScaling{})
		alpha := 1 / d.Mean()
		rows = append(rows, delayRow{
			Dist:          d.String(),
			SpeedupMC:     dm.SpeedupMC(10, trials, r),
			ConstantModel: delaymodel.SpeedupConstant(alpha, 10),
		})
	}
	return rows
}

// printDelayAblation renders the distribution sweep.
func printDelayAblation(w io.Writer, rows []delayRow) {
	fmt.Fprintln(w, "== Ablation: compute-time distribution (straggler mitigation, m=16, D=1) ==")
	fmt.Fprintf(w, "%-22s %12s %18s\n", "Y distribution", "MC speedup", "eq-12 (const Y)")
	for _, r := range rows {
		extra := ""
		if r.SpeedupMC > r.ConstantModel*1.05 {
			extra = "  <-- straggler mitigation beyond eq 12"
		}
		fmt.Fprintf(w, "%-22s %12.3f %18.3f%s\n", r.Dist, r.SpeedupMC, r.ConstantModel, extra)
	}
}
