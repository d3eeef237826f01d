package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/metrics"
	"repro/internal/paramserver"
	"repro/internal/rng"
	"repro/internal/sgd"
)

// The link-aware ablation quantifies the tentpole claim: on a cluster whose
// straggler is slow in bytes per second, controllers that consume the
// observed per-round timing (cluster.RoundInfo / paramserver.RoundInfo)
// dominate the paper's static loss-ratio rules. AdaComm's LinkAware mode
// holds tau higher by sqrt(observed alpha), amortizing the slow link;
// AdaSync's LinkAware mode stops growing K past the fast-link count, so the
// slow link never gates an update (Kas Hanna et al. 2022).

// linkAwareRow is one method's outcome on the constrained cluster.
type linkAwareRow struct {
	Method       string
	FinalLoss    float64
	MinLoss      float64
	TimeToTarget float64 // simulated seconds to reach the shared target loss
	Iters        int     // local iterations (or server updates) in the budget
	FinalTau     int     // final tau (or K)
}

// linkAwareRows converts traces into rows against a shared target,
// reachableTarget at a 1% margin, so every method reaches it and
// time-to-target is always defined.
func linkAwareRows(traces []*metrics.Trace) (float64, []linkAwareRow) {
	target := reachableTarget(traces, 0.01)
	rows := make([]linkAwareRow, len(traces))
	for i, tr := range traces {
		rows[i] = linkAwareRow{
			Method:       tr.Name,
			FinalLoss:    tr.FinalLoss(),
			MinLoss:      tr.MinLoss(),
			TimeToTarget: tr.TimeToLoss(target),
			Iters:        tr.Last().Iter,
			FinalTau:     tr.Last().Tau,
		}
	}
	return target, rows
}

// linkAwareAblation runs the static-rule AdaComm against the link-aware mode
// (plus fixed tau = 1 for context) on the slow-link cluster of
// slowLinkAblation, under one simulated-time budget. The returned target is
// the shared loss level the time-to-target column measures.
func linkAwareAblation(scale Scale) (float64, []linkAwareRow) {
	w := slowLinkWorkload(scale)

	// A shorter budget than the straggler ablation's, split into many
	// intervals: the controllers must differentiate WHILE the loss is still
	// falling — with one long first interval both run tau0 until the
	// interesting phase is over and only the noise floor separates them.
	budget := slowLinkBudget(scale) / 3
	cfg := cluster.Config{
		BatchSize:  8,
		MaxTime:    budget,
		EvalEvery:  50,
		EvalSubset: 400,
		Seed:       slowLinkSeed + 1,
	}
	sched := sgd.Const{Eta: 0.1}
	adaCfg := func(linkAware bool) core.Config {
		return core.Config{
			Tau0: slowLinkTau0, Interval: budget / 12, Gamma: 0.5,
			Schedule: sched, LinkAware: linkAware,
		}
	}
	runs := []struct {
		name string
		ctrl func() cluster.Controller
	}{
		{"tau=1", func() cluster.Controller { return cluster.FixedTau{Tau: 1, Schedule: sched} }},
		{"adacomm", func() cluster.Controller { return core.NewAdaComm(adaCfg(false)) }},
		{"adacomm+link", func() cluster.Controller { return core.NewAdaComm(adaCfg(true)) }},
	}
	traces := make([]*metrics.Trace, len(runs))
	forEach(len(runs), func(i int) {
		e := w.Engine(cfg)
		traces[i] = e.Run(runs[i].ctrl(), runs[i].name)
	})
	return linkAwareRows(traces)
}

// linkAwareAdaSyncAblation is the parameter-server half: K-async SGD where
// worker m-1's uplink is 10x slower than the shared bandwidth, comparing the
// static AdaSync growth rule against the link-aware cap under the same
// simulated-time budget.
func linkAwareAdaSyncAblation(scale Scale) (float64, []linkAwareRow) {
	m := 8
	w := BuildWorkload(ArchLogistic, 4, m, scale, 501)
	budget := 600.0
	if scale == ScaleQuick {
		budget = 250
	}
	bandwidth := 256.0
	links := make([]delaymodel.Link, m)
	links[m-1].Bandwidth = bandwidth / 10
	cfg := paramserver.Config{
		Mode:       paramserver.KAsync,
		BatchSize:  8,
		ComputeY:   rng.Exponential{MeanVal: 1},
		PushDelay:  rng.Constant{Value: 0.1},
		Bandwidth:  bandwidth,
		Links:      links,
		MaxTime:    budget,
		EvalEvery:  10,
		EvalSubset: 400,
		Seed:       502,
	}
	shards := data.ShardIID(w.Train, m, rng.New(503))

	// A short interval grows the static K to m early in the run, so the
	// slow link starts gating updates while the loss is still falling and
	// the two rules separate on the time axis.
	adaCfg := func(linkAware bool) paramserver.AdaSyncConfig {
		return paramserver.AdaSyncConfig{
			K0: 1, M: m, Interval: budget / 40, LR: 0.1, LinkAware: linkAware,
		}
	}
	runs := []struct {
		name string
		ctrl func() paramserver.Controller
	}{
		{"adasync", func() paramserver.Controller { return paramserver.NewAdaSync(adaCfg(false)) }},
		{"adasync+link", func() paramserver.Controller { return paramserver.NewAdaSync(adaCfg(true)) }},
	}
	traces := make([]*metrics.Trace, len(runs))
	forEach(len(runs), func(i int) {
		s, err := paramserver.New(w.Proto, shards, w.Train, cfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		tr, _ := s.Run(runs[i].ctrl(), runs[i].name)
		traces[i] = tr
	})
	return linkAwareRows(traces)
}

// printLinkAware renders the rows of every ablation that races methods to a
// shared target loss.
func printLinkAware(w io.Writer, header string, target float64, rows []linkAwareRow) {
	fmt.Fprintf(w, "== %s (time to loss %.5f) ==\n", header, target)
	fmt.Fprintf(w, "%-20s %12s %12s %11s %8s %9s\n",
		"method", "final loss", "min loss", "t(target)", "iters", "final tau")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %12.5f %12.5f %11.1f %8d %9d\n",
			r.Method, r.FinalLoss, r.MinLoss, r.TimeToTarget, r.Iters, r.FinalTau)
	}
}
