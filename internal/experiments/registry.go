package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/compress"
	"repro/internal/faults"
)

// The ablation registry: every ablation the repo ships is ONE row of the
// table below, and cmd/sweep is parse -> select -> loop over it. Its
// -ablation help, its unknown-name error and its "flag X only tunes ablation
// Y" checks are all generated from the rows, so adding an ablation is adding
// a row.

// Tuning is the set of cmd/sweep tuning options an ablation honours.
type Tuning uint8

const (
	TuneWire      Tuning = 1 << iota // -wire
	TuneFaults                       // -faults
	TuneOptimizer                    // -adam-beta2, -global-momentum
)

// AblationOptions carries cmd/sweep's flag values to the selected rows. The
// tuning fields hold the raw flag values; zero means "flag not given".
type AblationOptions struct {
	Scale          Scale
	Wire           string  // TuneWire: wire precision of the gossip grid's compressed cells
	Faults         string  // TuneFaults: churn schedule override (faults.Forms grammar)
	AdamBeta2      float64 // TuneOptimizer: second-moment decay of the Adam rows
	GlobalMomentum float64 // TuneOptimizer: slow-momentum factor of the slowmo row
}

// Ablation is one row of the registry.
type Ablation struct {
	Name  string
	Help  string // one line, shown by sweep -h
	Tunes Tuning // the tuning options Run honours
	// Run builds the ablation's spec from o, validates it, runs the grid on
	// the experiment pool and prints the table to w. An error means the
	// options were bad and nothing was printed.
	Run func(w io.Writer, o AblationOptions) error
}

// scaled adapts the common shape — a driver sized only by Scale and its
// printer — to Ablation.Run.
func scaled[R any](run func(Scale) R, render func(io.Writer, R)) func(io.Writer, AblationOptions) error {
	return func(w io.Writer, o AblationOptions) error {
		render(w, run(o.Scale))
		return nil
	}
}

// ablations is the registry, in the order -ablation all runs it.
var ablations = []Ablation{
	{Name: "tau0", Help: "grid search over fixed tau (how tau_0 is picked)",
		Run: scaled(TauGridAblation, PrintTauGrid)},
	{Name: "gamma", Help: "saturation-decay factor gamma in {0.95, 0.5, 0.25} (eq 18)",
		Run: scaled(GammaAblation, PrintGammaAblation)},
	{Name: "coupling", Help: "LR coupling rule: none vs sqrt (eq 20) vs full (eq 19) under LR decay",
		Run: scaled(CouplingAblation, PrintCouplingAblation)},
	{Name: "t0", Help: "adaptation interval T0 sensitivity",
		Run: scaled(IntervalAblation, PrintIntervalAblation)},
	{Name: "strategy", Help: "AdaComm over full averaging / ring gossip / elastic averaging",
		Run: scaled(StrategyAblation, PrintStrategyAblation)},
	{Name: "adasync", Help: "parameter server: AdaSync's adaptive K vs fixed K",
		Run: scaled(AdaSyncExperiment, PrintAdaSync)},
	{Name: "delay", Help: "compute-time distribution: constant vs exponential vs Pareto Y",
		Run: scaled(DelayAblation, PrintDelayAblation)},
	{Name: "gossip", Help: "CHOCO ring gossip vs shared-reference averaging (-wire float32 narrows the compressed cells)",
		Tunes: TuneWire,
		Run: func(w io.Writer, o AblationOptions) error {
			spec := DefaultGossipGrid(o.Scale)
			var err error
			if spec.Wire, err = compress.ParseWire(o.Wire); err != nil {
				return err
			}
			PrintGossipGrid(w, RunGossipGrid(spec))
			return nil
		}},
	{Name: "async", Help: "event-driven K-of-m vs round-barrier engines under a 10x straggler",
		Run: func(w io.Writer, o AblationOptions) error {
			target, rows := AsyncAblation(DefaultAsyncSpec(o.Scale))
			PrintLinkAware(w, "async vs sync under 10x straggler", target, rows)
			return nil
		}},
	{Name: "wire", Help: "float32 vs float64 wire at fixed tau",
		Run: scaled(WireAblation, PrintWireAblation)},
	{Name: "topology", Help: "mixing graphs (ring/torus/random-regular/complete) under a per-edge straggler",
		Run: func(w io.Writer, o AblationOptions) error {
			PrintTopologyGrid(w, RunTopologyGrid(DefaultTopologyGrid(o.Scale)))
			return nil
		}},
	{Name: "churn", Help: "every strategy fault-free and under crash-recover churn + drops (-faults overrides the schedule)",
		Tunes: TuneFaults,
		Run: func(w io.Writer, o AblationOptions) error {
			spec := DefaultChurnSpec(o.Scale)
			if o.Faults != "" {
				spec.Faults = o.Faults
			}
			sched, err := faults.Parse(spec.Faults)
			if err == nil {
				err = sched.Validate(spec.Workers)
			}
			if err != nil {
				return err
			}
			target, rows := ChurnAblation(spec)
			PrintLinkAware(w, "strategies under crash-recover churn", target, rows)
			return nil
		}},
	{Name: "optimizer", Help: "local update rules: SGD / momentum / Nesterov / Adam / SlowMo (-adam-beta2, -global-momentum tune rows)",
		Tunes: TuneOptimizer,
		Run: func(w io.Writer, o AblationOptions) error {
			spec := DefaultOptimizerSpec(o.Scale)
			spec.AdamBeta2 = o.AdamBeta2
			if o.GlobalMomentum != 0 {
				spec.GlobalMomentum = o.GlobalMomentum
			}
			target, rows := OptimizerAblation(spec)
			PrintLinkAware(w, "local update rules (internal/opt)", target, rows)
			return nil
		}},
}

// ablationNames joins the rows' names for messages.
func ablationNames(rows []Ablation) string {
	names := make([]string, len(rows))
	for i, a := range rows {
		names[i] = a.Name
	}
	return strings.Join(names, " | ")
}

// AblationUsage is the generated -ablation help: one line per row.
func AblationUsage() string {
	var b strings.Builder
	b.WriteString("ablation to run:")
	for _, a := range ablations {
		fmt.Fprintf(&b, "\n  %-10s %s", a.Name, a.Help)
	}
	fmt.Fprintf(&b, "\n  %-10s every row above, in this order", "all")
	return b.String()
}

// SelectAblations resolves an -ablation value: one row by name, or every
// row in registry order for "all". An unknown name is an error listing the
// valid ones.
func SelectAblations(name string) ([]Ablation, error) {
	if name == "all" {
		return ablations, nil
	}
	for i, a := range ablations {
		if a.Name == name {
			return ablations[i : i+1], nil
		}
	}
	return nil, fmt.Errorf("unknown -ablation %q (want %s | all)", name, ablationNames(ablations))
}

// Validate rejects, before any grid runs, a malformed -wire or -faults
// value and any tuning option that none of the selected rows honours — a
// flag that would be silently ignored is a typo, not a no-op.
func (o AblationOptions) Validate(sel []Ablation) error {
	if _, err := compress.ParseWire(o.Wire); err != nil {
		return err
	}
	if _, err := faults.Parse(o.Faults); err != nil {
		return err
	}
	var honoured Tuning
	for _, a := range sel {
		honoured |= a.Tunes
	}
	for _, g := range []struct {
		tune  Tuning
		given bool
		flags string
	}{
		{TuneWire, o.Wire != "", "-wire only tunes"},
		{TuneFaults, o.Faults != "", "-faults only tunes"},
		{TuneOptimizer, o.AdamBeta2 != 0 || o.GlobalMomentum != 0, "-adam-beta2 and -global-momentum only tune"},
	} {
		if !g.given || honoured&g.tune != 0 {
			continue
		}
		var takers []Ablation
		for _, a := range ablations {
			if a.Tunes&g.tune != 0 {
				takers = append(takers, a)
			}
		}
		return fmt.Errorf("%s -ablation %s; -ablation %s ignores it (use -ablation %s | all)",
			g.flags, ablationNames(takers), ablationNames(sel), ablationNames(takers))
	}
	return nil
}
