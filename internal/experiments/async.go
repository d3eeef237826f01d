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

// AsyncSpec sizes the async-vs-sync ablation.
type AsyncSpec struct {
	Scale         Scale
	Workers       int
	SlowFactor    float64 // compute-straggler multiplier on the last worker
	Tau           int
	BatchSize     int
	LR            float64
	TimeBudget    float64 // simulated seconds per method
	Participation int     // K for the partial-participation row
	Seed          uint64
}

// DefaultAsyncSpec returns the sizing cmd/sweep -ablation async runs.
func DefaultAsyncSpec(scale Scale) AsyncSpec {
	s := AsyncSpec{
		Scale:         scale,
		Workers:       8,
		SlowFactor:    10,
		Tau:           4,
		BatchSize:     8,
		LR:            0.1,
		TimeBudget:    600,
		Participation: 6,
		Seed:          601,
	}
	if scale == ScaleQuick {
		s.TimeBudget = 240
	}
	return s
}

// AsyncAblation runs four methods on one logistic workload with a
// SlowFactor compute straggler on the last worker, under one simulated-time
// budget: the fixed-tau barrier, AdaComm on the same barrier, the
// event-driven engine at full participation (K=m, the barrier expressed as
// events), and the event-driven engine at K-of-m. Returns the shared target
// loss and one row per method (linkAwareRows semantics).
func AsyncAblation(spec AsyncSpec) (float64, []LinkAwareRow) {
	m := spec.Workers
	straggler := make([]float64, m)
	for i := range straggler {
		straggler[i] = 1
	}
	straggler[m-1] = spec.SlowFactor

	sched := sgd.Const{Eta: spec.LR}
	syncCfg := cluster.Config{
		BatchSize:       spec.BatchSize,
		MaxTime:         spec.TimeBudget,
		EvalEvery:       50,
		EvalSubset:      400,
		StragglerFactor: straggler,
		Seed:            spec.Seed + 1,
	}
	asyncCfg := func(k int) cluster.AsyncConfig {
		return cluster.AsyncConfig{
			Participation:   k,
			InFlight:        m,
			Tau:             spec.Tau,
			BatchSize:       spec.BatchSize,
			LR:              spec.LR,
			MaxTime:         spec.TimeBudget,
			EvalEvery:       50,
			EvalSubset:      400,
			StragglerFactor: straggler,
			Seed:            spec.Seed + 2,
		}
	}

	runs := []struct {
		name string
		run  func(*Workload) *metrics.Trace
	}{
		{fmt.Sprintf("sync tau=%d", spec.Tau), func(w *Workload) *metrics.Trace {
			e := w.Engine(syncCfg)
			return e.Run(cluster.FixedTau{Tau: spec.Tau, Schedule: sched}, fmt.Sprintf("sync tau=%d", spec.Tau))
		}},
		{"adacomm", func(w *Workload) *metrics.Trace {
			ctrl := core.NewAdaComm(core.Config{
				Tau0: spec.Tau, Interval: spec.TimeBudget / 12, Gamma: 0.5, Schedule: sched,
			})
			e := w.Engine(syncCfg)
			return e.Run(ctrl, "adacomm")
		}},
		{fmt.Sprintf("async K=%d/%d", m, m), func(w *Workload) *metrics.Trace {
			e, err := cluster.NewAsync(w.Proto, w.Shards, w.Train, w.Test, w.Delay, asyncCfg(m))
			if err != nil {
				panic(fmt.Sprintf("experiments: %v", err))
			}
			return e.Run(fmt.Sprintf("async K=%d/%d", m, m))
		}},
		{fmt.Sprintf("async K=%d/%d", spec.Participation, m), func(w *Workload) *metrics.Trace {
			e, err := cluster.NewAsync(w.Proto, w.Shards, w.Train, w.Test, w.Delay, asyncCfg(spec.Participation))
			if err != nil {
				panic(fmt.Sprintf("experiments: %v", err))
			}
			return e.Run(fmt.Sprintf("async K=%d/%d", spec.Participation, m))
		}},
	}

	traces := make([]*metrics.Trace, len(runs))
	forEach(len(runs), func(i int) {
		// Each method gets its own workload instance (same seed → same data
		// and initialization) so parallel runs share nothing mutable.
		w := BuildWorkload(ArchLogistic, 4, m, spec.Scale, spec.Seed)
		traces[i] = runs[i].run(w)
	})
	return linkAwareRows(traces)
}
