package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/compress"
	"repro/internal/faults"
)

// The ablation registry: every ablation the repo ships is ONE row of the
// table below, and this file is the only way to run one. cmd/sweep is parse
// -> select -> validate -> loop over the rows; examples/heterogeneous,
// paramserver and stragglers and the root benchmarks select rows by name.
// Its -ablation help, its unknown-name error and its "flag X only tunes
// ablation Y" checks are all generated from the rows, so adding an ablation
// is adding a row: a driver sized by literals and handed the parsed params
// below, and a printer.

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
	AdamBeta2      float64 // TuneOptimizer: second-moment decay of the Adam rows, in (0, 1)
	GlobalMomentum float64 // TuneOptimizer: slow-momentum factor of the slowmo row, in (0, 1)
}

// params is AblationOptions parsed and range-checked: what a row's driver is
// handed.
type params struct {
	scale          Scale
	wire           compress.WireFormat
	faults         *faults.Schedule // the churn row's schedule: -faults, else churnFaults
	adamBeta2      float64          // 0 = opt's default
	globalMomentum float64          // 0 = the optimizer row's default
}

// Ablation is one row of the registry.
type Ablation struct {
	Name  string
	Help  string // one line, shown by sweep -h
	Tunes Tuning // the tuning options the row honours
	run   func(w io.Writer, p params)
}

// Run parses and range-checks o, then runs the row's grid on the experiment
// pool and prints its table to w. An error means the options were bad and
// nothing was printed. Whether the row honours the options given is
// Validate's question, asked once for the whole selection.
func (a Ablation) Run(w io.Writer, o AblationOptions) error {
	p, err := o.parse()
	if err != nil {
		return err
	}
	a.run(w, p)
	return nil
}

// scaled adapts the common shape — a driver sized only by Scale and its
// printer — to a row.
func scaled[R any](run func(Scale) R, render func(io.Writer, R)) func(io.Writer, params) {
	return func(w io.Writer, p params) { render(w, run(p.scale)) }
}

// targeted adapts a driver that returns a shared target loss and one
// linkAwareRow per method to a row printed under header.
func targeted(header string, run func(params) (float64, []linkAwareRow)) func(io.Writer, params) {
	return func(w io.Writer, p params) {
		target, rows := run(p)
		printLinkAware(w, header, target, rows)
	}
}

// ablations is the registry, in the order -ablation all runs it. New rows go
// at the end, so the tables before them keep their place in the golden.
var ablations = []Ablation{
	{Name: "tau0", Help: "grid search over fixed tau (how tau_0 is picked)",
		run: scaled(tauGridAblation, printTauGrid)},
	{Name: "gamma", Help: "saturation-decay factor gamma in {0.95, 0.5, 0.25} (eq 18)",
		run: scaled(gammaAblation, printGammaAblation)},
	{Name: "coupling", Help: "LR coupling rule: none vs sqrt (eq 20) vs full (eq 19) under LR decay",
		run: scaled(couplingAblation, printCouplingAblation)},
	{Name: "t0", Help: "adaptation interval T0 sensitivity",
		run: scaled(intervalAblation, printIntervalAblation)},
	{Name: "strategy", Help: "AdaComm over full averaging / ring gossip / elastic averaging",
		run: scaled(strategyAblation, printStrategyAblation)},
	{Name: "adasync", Help: "parameter server: AdaSync's adaptive K vs fixed K",
		run: scaled(adaSyncAblation, printAdaSync)},
	{Name: "delay", Help: "compute-time distribution: constant vs exponential vs Pareto Y",
		run: scaled(delayAblation, printDelayAblation)},
	{Name: "gossip", Help: "CHOCO ring gossip vs shared-reference averaging (-wire float32 narrows the compressed cells)",
		Tunes: TuneWire,
		run:   func(w io.Writer, p params) { printGossipGrid(w, gossipGrid(p.scale, p.wire)) }},
	{Name: "async", Help: "event-driven K-of-m vs round-barrier engines under a 10x straggler",
		run: targeted("async vs sync under 10x straggler",
			func(p params) (float64, []linkAwareRow) { return asyncAblation(p.scale) })},
	{Name: "wire", Help: "float32 vs float64 wire at fixed tau",
		run: scaled(wireAblation, printWireAblation)},
	{Name: "topology", Help: "mixing graphs (ring/torus/random-regular/complete) under a per-edge straggler",
		run: func(w io.Writer, p params) {
			target, rows := topologyGrid(p.scale)
			printTopologyGrid(w, target, rows)
		}},
	{Name: "churn", Help: "every strategy fault-free and under crash-recover churn + drops (-faults overrides the schedule)",
		Tunes: TuneFaults,
		run: targeted("strategies under crash-recover churn",
			func(p params) (float64, []linkAwareRow) { return churnAblation(p.scale, p.faults) })},
	{Name: "optimizer", Help: "local update rules: SGD / momentum / Nesterov / Adam / SlowMo (-adam-beta2, -global-momentum tune rows)",
		Tunes: TuneOptimizer,
		run: targeted("local update rules (internal/opt)",
			func(p params) (float64, []linkAwareRow) {
				return optimizerAblation(p.scale, p.adamBeta2, p.globalMomentum)
			})},
	{Name: "slowlink", Help: "fixed tau vs AdaComm when one worker's uplink is 10x slower",
		run: func(w io.Writer, p params) { printSlowLink(w, p.scale, slowLinkAblation(p.scale)) }},
	{Name: "linkaware", Help: "link-aware AdaComm vs the static rule on the 10x slow uplink",
		run: targeted("Link-aware AdaComm vs the static rule (10x bandwidth straggler)",
			func(p params) (float64, []linkAwareRow) { return linkAwareAblation(p.scale) })},
	{Name: "linkaware-ps", Help: "link-aware AdaSync vs the static growth rule (K-async server, one 10x slow uplink)",
		run: targeted("Link-aware AdaSync vs the static growth rule (K-async, m=8)",
			func(p params) (float64, []linkAwareRow) { return linkAwareAdaSyncAblation(p.scale) })},
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
		fmt.Fprintf(&b, "\n  %-12s %s", a.Name, a.Help)
	}
	fmt.Fprintf(&b, "\n  %-12s every row above, in this order", "all")
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

// parse turns the flag values into a driver's params, rejecting a malformed
// -wire or -faults value, a -faults schedule naming a worker the churn
// cluster does not have, and an optimizer factor outside (0, 1).
func (o AblationOptions) parse() (params, error) {
	p := params{scale: o.Scale, adamBeta2: o.AdamBeta2, globalMomentum: o.GlobalMomentum}
	var err error
	if p.wire, err = compress.ParseWire(o.Wire); err != nil {
		return p, err
	}
	spec := o.Faults
	if spec == "" {
		spec = churnFaults
	}
	if p.faults, err = faults.Parse(spec); err != nil {
		return p, err
	}
	if err = p.faults.Validate(churnWorkers); err != nil {
		return p, err
	}
	for _, f := range []struct {
		flag string
		v    float64
	}{{"-adam-beta2", o.AdamBeta2}, {"-global-momentum", o.GlobalMomentum}} {
		if f.v != 0 && !(f.v > 0 && f.v < 1) {
			return p, fmt.Errorf("%s %g outside (0, 1)", f.flag, f.v)
		}
	}
	return p, nil
}

// Validate rejects, before any grid runs, every option Run would reject and
// any tuning option that none of the selected rows honours — a flag that
// would be silently ignored is a typo, not a no-op.
func (o AblationOptions) Validate(sel []Ablation) error {
	if _, err := o.parse(); err != nil {
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
