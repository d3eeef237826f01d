package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/paramserver"
	"repro/internal/rng"
	"repro/internal/sgd"
)

// The churn ablation is the robustness counterpart of the straggler studies:
// instead of slowing a link it removes workers outright. A fifth of the
// population crash-recovers mid-run (two staggered blips on a 10-worker
// cluster) on top of a background message-drop rate, and every aggregation
// strategy — centralized averaging, AdaComm on the same barrier, raw and
// compressed gossip, elastic averaging, the event-driven K-of-m engine, and
// the K-async parameter server — must finish the budget without deadlock.
// Each method runs twice, fault-free and under churn, so the table shows the
// degradation directly: the headline claim is that AdaComm's time-to-target
// degrades gracefully (survivors keep averaging over the active set, rejoiners
// snap back via a priced dense pull) rather than stalling on the departed.

// ChurnSpec sizes the churn ablation.
type ChurnSpec struct {
	Scale      Scale
	Workers    int
	Tau        int
	BatchSize  int
	LR         float64
	TimeBudget float64 // simulated seconds per method
	// Faults is the schedule every churn row runs under (faults.Forms
	// grammar, validated against Workers). Empty uses the default 20%
	// crash-recover churn plus a 5% drop rate.
	Faults string
	Seed   uint64
}

// DefaultChurnSpec returns the sizing cmd/sweep -ablation churn runs.
func DefaultChurnSpec(scale Scale) ChurnSpec {
	s := ChurnSpec{
		Scale:      scale,
		Workers:    10,
		Tau:        5,
		BatchSize:  8,
		LR:         0.1,
		TimeBudget: 600,
		Faults:     "blip:0@r8-20,blip:1@r28-42,drop:0.05",
		Seed:       901,
	}
	if scale == ScaleQuick {
		s.TimeBudget = 240
	}
	return s
}

// ChurnAblation runs every strategy fault-free and under the spec's churn
// schedule, on one logistic workload and one simulated-time budget. Returns
// the shared target loss and one row per (method, condition) pair — the
// "+churn" rows carry the degradation. Panics on an invalid fault spec;
// callers wiring user input should faults.Parse first.
func ChurnAblation(spec ChurnSpec) (float64, []LinkAwareRow) {
	m := spec.Workers
	sched, err := faults.Parse(spec.Faults)
	if err != nil {
		panic(fmt.Sprintf("experiments: churn fault spec: %v", err))
	}
	if err := sched.Validate(m); err != nil {
		panic(fmt.Sprintf("experiments: churn fault spec: %v", err))
	}

	lrSched := sgd.Const{Eta: spec.LR}
	clusterCfg := func(f *faults.Schedule) cluster.Config {
		return cluster.Config{
			BatchSize:  spec.BatchSize,
			MaxTime:    spec.TimeBudget,
			EvalEvery:  50,
			EvalSubset: 400,
			Seed:       spec.Seed + 1,
			Faults:     f,
		}
	}

	type method struct {
		name string
		run  func(w *Workload, f *faults.Schedule, label string) *metrics.Trace
	}
	methods := []method{
		{"full", func(w *Workload, f *faults.Schedule, label string) *metrics.Trace {
			e := w.Engine(clusterCfg(f))
			return e.Run(cluster.FixedTau{Tau: spec.Tau, Schedule: lrSched}, label)
		}},
		{"adacomm", func(w *Workload, f *faults.Schedule, label string) *metrics.Trace {
			ctrl := core.NewAdaComm(core.Config{
				Tau0: spec.Tau, Interval: spec.TimeBudget / 12, Gamma: 0.5, Schedule: lrSched,
			})
			e := w.Engine(clusterCfg(f))
			return e.Run(ctrl, label)
		}},
		{"ring", func(w *Workload, f *faults.Schedule, label string) *metrics.Trace {
			cfg := clusterCfg(f)
			cfg.Strategy = cluster.RingGossip
			e := w.Engine(cfg)
			return e.Run(cluster.FixedTau{Tau: spec.Tau, Schedule: lrSched}, label)
		}},
		{"choco", func(w *Workload, f *faults.Schedule, label string) *metrics.Trace {
			cfg := clusterCfg(f)
			cfg.Strategy = cluster.RingGossip
			cfg.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25}
			cfg.AdaptGossipGamma = true
			e := w.Engine(cfg)
			return e.Run(cluster.FixedTau{Tau: spec.Tau, Schedule: lrSched}, label)
		}},
		{"elastic", func(w *Workload, f *faults.Schedule, label string) *metrics.Trace {
			cfg := clusterCfg(f)
			cfg.Strategy = cluster.ElasticAveraging
			e := w.Engine(cfg)
			return e.Run(cluster.FixedTau{Tau: spec.Tau, Schedule: lrSched}, label)
		}},
		{fmt.Sprintf("async K=%d/%d", m-2, m), func(w *Workload, f *faults.Schedule, label string) *metrics.Trace {
			cfg := cluster.AsyncConfig{
				Participation: m - 2,
				InFlight:      m,
				Tau:           spec.Tau,
				BatchSize:     spec.BatchSize,
				LR:            spec.LR,
				MaxTime:       spec.TimeBudget,
				EvalEvery:     50,
				EvalSubset:    400,
				Seed:          spec.Seed + 2,
				Faults:        f,
			}
			e, err := cluster.NewAsync(w.Proto, w.Shards, w.Train, w.Test, w.Delay, cfg)
			if err != nil {
				panic(fmt.Sprintf("experiments: %v", err))
			}
			return e.Run(label)
		}},
		{fmt.Sprintf("ps k-async K=%d", m/2), func(w *Workload, f *faults.Schedule, label string) *metrics.Trace {
			cfg := paramserver.Config{
				Mode:       paramserver.KAsync,
				BatchSize:  spec.BatchSize,
				ComputeY:   rng.Exponential{MeanVal: 1},
				PushDelay:  rng.Constant{Value: 0.1},
				MaxTime:    spec.TimeBudget,
				EvalEvery:  10,
				EvalSubset: 400,
				Seed:       spec.Seed + 3,
				Faults:     f,
			}
			shards := data.ShardIID(w.Train, m, rng.New(spec.Seed+4))
			s, err := paramserver.New(w.Proto, shards, w.Train, cfg)
			if err != nil {
				panic(fmt.Sprintf("experiments: %v", err))
			}
			tr, _ := s.Run(paramserver.FixedK{K: m / 2, LR: spec.LR}, label)
			return tr
		}},
	}

	// Every method runs fault-free and churned; each run gets its own
	// workload instance (same seed → same data and initialization) so
	// parallel runs share nothing mutable.
	type job struct {
		label string
		f     *faults.Schedule
		m     method
	}
	jobs := make([]job, 0, 2*len(methods))
	for _, mt := range methods {
		jobs = append(jobs, job{mt.name, nil, mt})
		jobs = append(jobs, job{mt.name + "+churn", sched, mt})
	}
	traces := make([]*metrics.Trace, len(jobs))
	forEach(len(jobs), func(i int) {
		w := BuildWorkload(ArchLogistic, 4, m, spec.Scale, spec.Seed)
		traces[i] = jobs[i].m.run(w, jobs[i].f, jobs[i].label)
	})
	return linkAwareRows(traces)
}
