package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sgd"
)

// The async ablation puts the round-barrier engines and the event-driven
// K-of-m engine on the same error-vs-simulated-wall-clock axis, under the
// same 10x compute straggler. The barrier methods pay the straggler on
// EVERY round — the slow worker gates each aggregation whether or not its
// gradient is worth waiting for. The event-driven engine aggregates the
// first K arrivals, staleness-weighted, and lets the straggler's work
// overlap later rounds; AdaComm rides the same barrier but amortizes it
// with larger tau. Time-to-target is the headline column: the async rows
// must reach the shared loss level well before the full-barrier row.

// asyncAblation runs four methods on one logistic workload (8 workers, the
// last one a 10x compute straggler) under one simulated-time budget: the
// fixed-tau barrier, AdaComm on the same barrier, the event-driven engine at
// full participation (K=m, the barrier expressed as events), and the
// event-driven engine at K=6 of 8. Returns the shared target loss and one
// row per method (linkAwareRows semantics).
func asyncAblation(scale Scale) (float64, []linkAwareRow) {
	const (
		m         = 8
		tau       = 4
		batchSize = 8
		lr        = 0.1
		k         = 6 // the partial-participation row
		seed      = 601
	)
	budget := 600.0
	if scale == ScaleQuick {
		budget = 240
	}
	straggler := make([]float64, m)
	for i := range straggler {
		straggler[i] = 1
	}
	straggler[m-1] = 10

	sched := sgd.Const{Eta: lr}
	syncCfg := cluster.Config{
		BatchSize:       batchSize,
		MaxTime:         budget,
		EvalEvery:       50,
		EvalSubset:      400,
		StragglerFactor: straggler,
		Seed:            seed + 1,
	}
	async := func(part int) func(*Workload, string) *metrics.Trace {
		return func(w *Workload, name string) *metrics.Trace {
			e, err := cluster.NewAsync(w.Proto, w.Shards, w.Train, w.Test, w.Delay, cluster.AsyncConfig{
				Participation:   part,
				InFlight:        m,
				Tau:             tau,
				BatchSize:       batchSize,
				LR:              lr,
				MaxTime:         budget,
				EvalEvery:       50,
				EvalSubset:      400,
				StragglerFactor: straggler,
				Seed:            seed + 2,
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: %v", err))
			}
			return e.Run(name)
		}
	}

	runs := []struct {
		name string
		run  func(w *Workload, name string) *metrics.Trace
	}{
		{fmt.Sprintf("sync tau=%d", tau), func(w *Workload, name string) *metrics.Trace {
			return w.Engine(syncCfg).Run(cluster.FixedTau{Tau: tau, Schedule: sched}, name)
		}},
		{"adacomm", func(w *Workload, name string) *metrics.Trace {
			ctrl := core.NewAdaComm(core.Config{
				Tau0: tau, Interval: budget / 12, Gamma: 0.5, Schedule: sched,
			})
			return w.Engine(syncCfg).Run(ctrl, name)
		}},
		{fmt.Sprintf("async K=%d/%d", m, m), async(m)},
		{fmt.Sprintf("async K=%d/%d", k, m), async(k)},
	}

	traces := make([]*metrics.Trace, len(runs))
	forEach(len(runs), func(i int) {
		// Each method gets its own workload instance (same seed → same data
		// and initialization) so parallel runs share nothing mutable.
		w := BuildWorkload(ArchLogistic, 4, m, scale, seed)
		traces[i] = runs[i].run(w, runs[i].name)
	})
	return linkAwareRows(traces)
}
