package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/sgd"
)

// TrainSpec describes one training comparison: a set of fixed-tau PASGD
// baselines plus AdaComm, all trained on the same workload for the same
// simulated wall-clock budget (the paper's protocol: "train all methods for
// sufficiently long time ... and compare training loss and test accuracy",
// with curves plotted against wall-clock time).
type TrainSpec struct {
	Name    string
	Arch    Arch
	Classes int
	M       int
	Scale   Scale
	Seed    uint64

	BatchSize  int
	BaseLR     float64
	VariableLR bool    // multi-step 10x decay at epochs 15, 30 and 45
	TimeBudget float64 // simulated seconds per method

	Taus     []int   // fixed-tau baselines (tau=1 is fully synchronous SGD)
	Tau0     int     // AdaComm initial period
	Interval float64 // AdaComm T0

	Opt            opt.Config // per-worker update rule (zero = plain SGD)
	GlobalMomentum float64    // global block momentum (Sec 5.3)

	EvalEvery int
}

func (s TrainSpec) withDefaults() TrainSpec {
	if s.BatchSize == 0 {
		s.BatchSize = 16
	}
	if s.BaseLR == 0 {
		s.BaseLR = 0.08
	}
	if s.EvalEvery == 0 {
		s.EvalEvery = 100
	}
	return s
}

func (s TrainSpec) schedule() sgd.Schedule {
	if s.VariableLR {
		// The decay epochs are chosen so the first decay fires within the
		// time budget even for tau=1 (which completes the fewest epochs per
		// simulated second), mirroring the paper's 80/120/160/200 schedule
		// proportionally.
		return sgd.MultiStep{Eta: s.BaseLR, Milestones: []int{15, 30, 45}}
	}
	return sgd.Const{Eta: s.BaseLR}
}

// Comparison holds the per-method traces of one experiment.
type Comparison struct {
	Spec   TrainSpec
	Order  []string                  // method names in display order
	Traces map[string]*metrics.Trace // keyed by method name
}

// RunComparison executes all baselines and AdaComm on a shared workload.
// Each method owns its engine and controller, so the methods run
// concurrently on the experiment pool (SetWorkers); results land in display
// order, identical to a serial sweep.
func RunComparison(spec TrainSpec) *Comparison {
	spec = spec.withDefaults()
	w := BuildWorkload(spec.Arch, spec.Classes, spec.M, spec.Scale, spec.Seed)
	sched := spec.schedule()

	cfg := cluster.Config{
		BatchSize:      spec.BatchSize,
		Opt:            spec.Opt,
		GlobalMomentum: spec.GlobalMomentum,
		MaxTime:        spec.TimeBudget,
		EvalEvery:      spec.EvalEvery,
		EvalSubset:     512,
		AccEverySync:   5,
		Seed:           spec.Seed + 1,
	}

	cmp := &Comparison{Spec: spec, Traces: map[string]*metrics.Trace{}}
	type job struct {
		name string
		ctrl func() cluster.Controller
	}
	var jobs []job
	for _, tau := range spec.Taus {
		tau := tau
		jobs = append(jobs, job{
			name: fmt.Sprintf("tau=%d", tau),
			ctrl: func() cluster.Controller {
				return cluster.FixedTau{Tau: tau, Schedule: sched}
			},
		})
	}
	jobs = append(jobs, job{
		name: "AdaComm",
		ctrl: func() cluster.Controller {
			return core.NewAdaComm(core.Config{
				Tau0:         spec.Tau0,
				Interval:     spec.Interval,
				Gamma:        0.5,
				Schedule:     sched,
				Coupling:     couplingFor(spec),
				DeferLRDecay: spec.VariableLR,
			})
		},
	})

	traces := make([]*metrics.Trace, len(jobs))
	forEach(len(jobs), func(i int) {
		traces[i] = w.Engine(cfg).Run(jobs[i].ctrl(), jobs[i].name)
	})
	for i, j := range jobs {
		cmp.Traces[j.name] = traces[i]
		cmp.Order = append(cmp.Order, j.name)
	}
	return cmp
}

func couplingFor(spec TrainSpec) core.Coupling {
	if spec.VariableLR {
		return core.SqrtCoupling
	}
	return core.NoCoupling
}

// ReachableTarget picks a loss target that EVERY method reaches: slightly
// above the worst method's minimum loss. q in (0, 1] scales the margin
// (q=0.05 means 5% above the worst minimum). This mirrors how the paper
// quotes "X minutes to reach loss Y": Y is always a level all curves cross.
func (c *Comparison) ReachableTarget(q float64) float64 {
	traces := make([]*metrics.Trace, 0, len(c.Traces))
	for _, tr := range c.Traces {
		traces = append(traces, tr)
	}
	return reachableTarget(traces, q)
}

// reachableTarget is ReachableTarget over a plain trace list, shared with
// the compression experiments.
func reachableTarget(traces []*metrics.Trace, q float64) float64 {
	worst := 0.0
	for _, tr := range traces {
		if l := tr.MinLoss(); l > worst {
			worst = l
		}
	}
	return worst * (1 + q)
}

// Print renders final losses, time-to-target and speedups.
func (c *Comparison) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", c.Spec.Name)
	target := c.ReachableTarget(0.05)
	fmt.Fprintf(w, "target loss for speedups: %.5f\n", target)
	fmt.Fprintf(w, "%-10s %12s %12s %14s %10s\n",
		"method", "final loss", "min loss", "t(target)", "speedup")
	for _, name := range c.Order {
		tr := c.Traces[name]
		tt := tr.TimeToLoss(target)
		sp := metrics.Speedup(c.Traces["tau=1"], tr, target)
		fmt.Fprintf(w, "%-10s %12.5f %12.5f %14.2f %10.2f\n",
			name, tr.FinalLoss(), tr.MinLoss(), tt, sp)
	}
	// AdaComm's tau trajectory (the lower subplot of Figs 9-13).
	if tr, ok := c.Traces["AdaComm"]; ok {
		fmt.Fprintf(w, "AdaComm tau trajectory:")
		lastTau := -1
		for _, p := range tr.Points {
			if p.Tau != lastTau && p.Tau > 0 {
				fmt.Fprintf(w, " (t=%.0f tau=%d)", p.Time, p.Tau)
				lastTau = p.Tau
			}
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// Figure specs.
// ---------------------------------------------------------------------------

// Fig1Spec is the conceptual error-vs-iterations / error-vs-time figure on
// the cheap logistic workload with alpha = 1.
func Fig1Spec(scale Scale) TrainSpec {
	budget := 4000.0
	if scale == ScaleQuick {
		budget = 1200
	}
	return TrainSpec{
		Name: "Fig 1: error vs iterations and vs wall-clock (logistic, alpha=1)",
		Arch: ArchLogistic, Classes: 4, M: 4, Scale: scale, Seed: 101,
		BatchSize: 4, BaseLR: 0.2, TimeBudget: budget,
		Taus: []int{1, 20}, Tau0: 20, Interval: budget / 10,
	}
}

// Fig9Spec: AdaComm on VGG-like, CIFAR10/100-like, fixed or variable LR,
// tau in {1, 20, 100} (paper Fig 9 a-c).
func Fig9Spec(classes int, variableLR bool, scale Scale) TrainSpec {
	budget := 300.0
	if scale == ScaleQuick {
		budget = 60
	}
	lrName := "fixed"
	if variableLR {
		lrName = "variable"
	}
	return TrainSpec{
		Name: fmt.Sprintf("Fig 9: VGG-like, %s LR, %d classes", lrName, classes),
		Arch: ArchVGG, Classes: classes, M: 4, Scale: scale, Seed: 109,
		BatchSize: 16, BaseLR: 0.08, VariableLR: variableLR,
		TimeBudget: budget,
		Taus:       []int{1, 20, 100}, Tau0: 20, Interval: budget / 10,
	}
}

// Fig10Spec: AdaComm on ResNet-like (computation-bound), tau in {1,5,100}.
func Fig10Spec(classes int, variableLR bool, scale Scale) TrainSpec {
	budget := 240.0
	if scale == ScaleQuick {
		budget = 45
	}
	lrName := "fixed"
	if variableLR {
		lrName = "variable"
	}
	return TrainSpec{
		Name: fmt.Sprintf("Fig 10: ResNet-like, %s LR, %d classes", lrName, classes),
		Arch: ArchResNet, Classes: classes, M: 4, Scale: scale, Seed: 110,
		BatchSize: 16, BaseLR: 0.08, VariableLR: variableLR,
		TimeBudget: budget,
		Taus:       []int{1, 5, 100}, Tau0: 10, Interval: budget / 10,
	}
}

// Fig11Spec: AdaComm plus block momentum (paper Fig 11): local momentum
// 0.9 reset at syncs, global block momentum 0.3.
func Fig11Spec(arch Arch, classes int, scale Scale) TrainSpec {
	budget := 300.0
	taus := []int{1, 20, 100}
	tau0 := 20
	if arch == ArchResNet {
		budget = 240
	}
	if scale == ScaleQuick {
		budget /= 10
	}
	return TrainSpec{
		Name: fmt.Sprintf("Fig 11: %s with block momentum, %d classes", arch, classes),
		Arch: arch, Classes: classes, M: 4, Scale: scale, Seed: 111,
		BatchSize: 16, BaseLR: 0.04, VariableLR: true,
		TimeBudget: budget,
		Taus:       taus, Tau0: tau0, Interval: budget / 10,
		Opt:            opt.Config{Rule: opt.RuleMomentum, Momentum: 0.9},
		GlobalMomentum: 0.3,
	}
}

// Fig12Spec / Fig13Spec: the appendix 8-worker runs (per-worker batch
// halved, mirroring the paper's 64-per-node setting).
func Fig12Spec(classes int, variableLR bool, scale Scale) TrainSpec {
	s := Fig9Spec(classes, variableLR, scale)
	s.Name = fmt.Sprintf("Fig 12: VGG-like, 8 workers, %d classes", classes)
	s.M = 8
	s.BatchSize = 8
	s.Seed = 112
	return s
}

// Fig13Spec is the 8-worker ResNet-like appendix experiment.
func Fig13Spec(classes int, variableLR bool, scale Scale) TrainSpec {
	s := Fig10Spec(classes, variableLR, scale)
	s.Name = fmt.Sprintf("Fig 13: ResNet-like, 8 workers, %d classes", classes)
	s.M = 8
	s.BatchSize = 8
	s.Seed = 113
	s.Taus = []int{1, 10, 100}
	return s
}

// ---------------------------------------------------------------------------
// Table 1: best test accuracy within a shared time budget.
// ---------------------------------------------------------------------------

// Table1Row is one (model, method, LR-mode) accuracy cell.
type Table1Row struct {
	Model               string
	Method              string
	FixedLR, VariableLR float64 // best test accuracy (fraction)
}

// Table1 is one architecture's rows of the paper's Table 1, read off the
// 10-class runs Figs 9 and 10 plot at fixed and at variable LR: each
// method's best test accuracy by the earliest time any run of either
// comparison ends. Rows follow fixed.Order; Model is fixed.Spec.Arch.
func Table1(fixed, variable *Comparison) []Table1Row {
	budget := math.Inf(1)
	for _, c := range []*Comparison{fixed, variable} {
		for _, tr := range c.Traces {
			budget = math.Min(budget, tr.Last().Time)
		}
	}
	rows := make([]Table1Row, len(fixed.Order))
	for i, m := range fixed.Order {
		rows[i] = Table1Row{
			Model:      string(fixed.Spec.Arch),
			Method:     m,
			FixedLR:    fixed.Traces[m].BestAccWithin(budget),
			VariableLR: variable.Traces[m].BestAccWithin(budget),
		}
	}
	return rows
}

// PrintTable1 renders the accuracy table.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "== Table 1: best test accuracy within time budget ==")
	fmt.Fprintf(w, "%-8s %-10s %10s %12s\n", "model", "method", "fixed LR", "variable LR")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-10s %9.2f%% %11.2f%%\n",
			r.Model, r.Method, 100*r.FixedLR, 100*r.VariableLR)
	}
}

// ---------------------------------------------------------------------------
// Figure 14: local vs synchronized model accuracy gap (appendix B).
// ---------------------------------------------------------------------------

// Fig14Result carries the two accuracy series of the appendix-B probe.
type Fig14Result struct {
	Tau        int
	SyncIters  []int     // iterations at which the synchronized model was scored
	SyncAcc    []float64 // accuracy right after averaging
	LocalIters []int     // iterations at which a local model was scored
	LocalAcc   []float64 // accuracy of worker 0's unsynchronized model
	MeanGap    float64   // mean(syncAcc) - mean(localAcc) over the tail half
}

// Fig14 trains PASGD with tau=15 and scores the synchronized model at every
// sync point that is a multiple of evalEvery, and worker 0's local model at
// mid-period points — reproducing the ~10% gap of the paper's Fig 14.
func Fig14(scale Scale, seed uint64) Fig14Result {
	w := BuildWorkload(ArchLogistic, 4, 4, scale, seed)
	maxIters := 6000
	evalEvery := 300
	if scale == ScaleQuick {
		maxIters, evalEvery = 1500, 150
	}
	cfg := cluster.Config{
		BatchSize: 4, // noisy gradients make local drift visible
		MaxIters:  maxIters,
		EvalEvery: evalEvery,
		Seed:      seed + 1,
	}
	e := w.Engine(cfg)

	const tau = 15
	res := Fig14Result{Tau: tau}
	lr := 0.25
	iter := 0
	for iter < maxIters {
		// Advance to the next averaging point, scoring the local model at
		// the half-period mark.
		e.StepLocal(tau/2, lr)
		iter += tau / 2
		if iter%evalEvery < tau {
			res.LocalIters = append(res.LocalIters, iter)
			res.LocalAcc = append(res.LocalAcc, e.EvalParamsAccuracy(e.LocalModelParams(0)))
		}
		e.StepLocal(tau-tau/2, lr)
		iter += tau - tau/2
		e.SyncNow()
		if iter%evalEvery < tau {
			res.SyncIters = append(res.SyncIters, iter)
			res.SyncAcc = append(res.SyncAcc, e.TestAccuracy())
		}
	}
	// Mean gap over the tail half (after warmup).
	tail := func(v []float64) float64 {
		if len(v) == 0 {
			return math.NaN()
		}
		half := v[len(v)/2:]
		s := 0.0
		for _, x := range half {
			s += x
		}
		return s / float64(len(half))
	}
	res.MeanGap = tail(res.SyncAcc) - tail(res.LocalAcc)
	return res
}

// PrintFig14 renders both series.
func PrintFig14(w io.Writer, res Fig14Result) {
	fmt.Fprintf(w, "== Fig 14: local vs synchronized accuracy (tau=%d) ==\n", res.Tau)
	type pt struct {
		iter int
		acc  float64
		kind string
	}
	var pts []pt
	for i := range res.SyncIters {
		pts = append(pts, pt{res.SyncIters[i], res.SyncAcc[i], "sync"})
	}
	for i := range res.LocalIters {
		pts = append(pts, pt{res.LocalIters[i], res.LocalAcc[i], "local"})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].iter < pts[j].iter })
	for _, p := range pts {
		fmt.Fprintf(w, "iter %6d  %-5s acc %6.2f%%\n", p.iter, p.kind, 100*p.acc)
	}
	fmt.Fprintf(w, "mean tail gap (sync - local): %.2f%%\n", 100*res.MeanGap)
}
