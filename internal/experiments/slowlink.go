package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/delaymodel"
	"repro/internal/metrics"
	"repro/internal/sgd"
)

// The bandwidth-straggler ablation extends the paper's straggler analysis
// (Sec 3.2) to the regime studied by the adaptive distributed-SGD follow-ups
// (Spiridonoff et al. 2020; Kas Hanna et al. 2022): the straggler is slow in
// bytes per second, not compute. One worker's uplink is 10x worse than the
// rest, so every synchronization is gated by its transfer time; communicating
// rarely (large tau) amortizes the slow link, and AdaComm's decaying-tau
// schedule buys the large-tau runtime early without the error floor late.

// The slow-link cluster: 4 logistic workers on 256 B/s links, the last one's
// uplink at a tenth of that, so one dense broadcast over it costs about 20
// local steps. slowLinkTau0 is AdaComm's initial period and the large fixed
// tau.
const (
	slowLinkWorkers   = 4
	slowLinkBandwidth = 256.0
	slowLinkSlow      = slowLinkBandwidth / 10
	slowLinkTau0      = 16
	slowLinkSeed      = 520
)

// slowLinkWorkload builds the slow-link cluster.
func slowLinkWorkload(scale Scale) *Workload {
	w := BuildWorkload(ArchLogistic, 4, slowLinkWorkers, scale, slowLinkSeed)
	w.Delay.Bandwidth = slowLinkBandwidth
	w.Delay.Links = make([]delaymodel.Link, slowLinkWorkers)
	w.Delay.Links[slowLinkWorkers-1].Bandwidth = slowLinkSlow
	return w
}

// slowLinkBudget is the bandwidth-straggler table's simulated-time budget.
func slowLinkBudget(scale Scale) float64 {
	if scale == ScaleQuick {
		return 800
	}
	return 2400
}

// slowLinkAblation runs fixed tau = 1, fixed tau = slowLinkTau0, and AdaComm
// on the slow-link cluster under the same simulated-time budget, one row per
// method (its table has no time-to-target column).
func slowLinkAblation(scale Scale) []linkAwareRow {
	w, budget := slowLinkWorkload(scale), slowLinkBudget(scale)
	cfg := cluster.Config{
		BatchSize:  8,
		MaxTime:    budget,
		EvalEvery:  100,
		EvalSubset: 400,
		Seed:       slowLinkSeed + 1,
	}
	sched := sgd.Const{Eta: 0.1}
	runs := []struct {
		name string
		ctrl func() cluster.Controller
	}{
		{"tau=1", func() cluster.Controller { return cluster.FixedTau{Tau: 1, Schedule: sched} }},
		{fmt.Sprintf("tau=%d", slowLinkTau0), func() cluster.Controller {
			return cluster.FixedTau{Tau: slowLinkTau0, Schedule: sched}
		}},
		{"adacomm", func() cluster.Controller {
			return core.NewAdaComm(core.Config{
				Tau0: slowLinkTau0, Interval: budget / 12, Gamma: 0.5,
				Schedule: sched,
			})
		}},
	}
	traces := make([]*metrics.Trace, len(runs))
	forEach(len(runs), func(i int) {
		traces[i] = w.Engine(cfg).Run(runs[i].ctrl(), runs[i].name)
	})
	_, rows := linkAwareRows(traces)
	return rows
}

// printSlowLink renders the comparison.
func printSlowLink(w io.Writer, scale Scale, rows []linkAwareRow) {
	fmt.Fprintf(w, "== Bandwidth straggler: worker %d at %g B/s, rest at %g B/s, budget %g s ==\n",
		slowLinkWorkers-1, slowLinkSlow, slowLinkBandwidth, slowLinkBudget(scale))
	fmt.Fprintf(w, "%-10s %12s %12s %8s %9s\n", "method", "final loss", "min loss", "iters", "final tau")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.5f %12.5f %8d %9d\n",
			r.Method, r.FinalLoss, r.MinLoss, r.Iters, r.FinalTau)
	}
}
