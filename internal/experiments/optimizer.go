package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/sgd"
)

// The optimizer ablation puts every local update rule (internal/opt) on one
// error-runtime table under the same PASGD barrier and budget: plain SGD,
// heavy-ball and Nesterov momentum, Local Adam with worker-local second
// moments, Local Adam with SYNCED second moments shipped through compressed
// CHOCO gossip over a float32 wire (the wire-visible-state row — optimizer
// state rides the same quantized, narrowed messages the parameters do), and
// SlowMo-style slow/global momentum layered on fast local momentum. A final
// row exercises the norm-decay bit-width rule: AdaComm jointly driving tau
// and a QSGD quantizer whose width follows the observed gradient-norm decay
// (compress.NormDecayBits) instead of the coarse ratio map.

// OptimizerSpec sizes the optimizer ablation.
type OptimizerSpec struct {
	Scale          Scale
	Workers        int
	Tau            int
	BatchSize      int
	LR             float64 // SGD-family learning rate
	AdamLR         float64 // Adam rows' learning rate (Adam wants a smaller step)
	AdamBeta2      float64 // Adam rows' second-moment decay (0 = opt default 0.999)
	GlobalMomentum float64 // slowmo row's slow-momentum factor
	TimeBudget     float64 // simulated seconds per method
	Seed           uint64
}

// DefaultOptimizerSpec returns the sizing cmd/sweep -ablation optimizer runs.
func DefaultOptimizerSpec(scale Scale) OptimizerSpec {
	s := OptimizerSpec{
		Scale:          scale,
		Workers:        4,
		Tau:            5,
		BatchSize:      8,
		LR:             0.1,
		AdamLR:         0.02,
		GlobalMomentum: 0.1,
		TimeBudget:     600,
		Seed:           911,
	}
	if scale == ScaleQuick {
		s.TimeBudget = 240
	}
	return s
}

// OptimizerAblation runs every update rule on one logistic workload and one
// simulated-time budget, returning the shared target loss and one row per
// rule. The momentum and slowmo rows are the acceptance anchor: with the
// default seed they reach the shared target no later than plain SGD.
func OptimizerAblation(spec OptimizerSpec) (float64, []LinkAwareRow) {
	lrSched := sgd.Const{Eta: spec.LR}
	adamSched := sgd.Const{Eta: spec.AdamLR}
	base := func() cluster.Config {
		return cluster.Config{
			BatchSize:  spec.BatchSize,
			MaxTime:    spec.TimeBudget,
			EvalEvery:  50,
			EvalSubset: 400,
			Seed:       spec.Seed + 1,
		}
	}
	fixed := func(cfg cluster.Config, sched sgd.Schedule) func(w *Workload, label string) *metrics.Trace {
		return func(w *Workload, label string) *metrics.Trace {
			e := w.Engine(cfg)
			return e.Run(cluster.FixedTau{Tau: spec.Tau, Schedule: sched}, label)
		}
	}

	sgdCfg := base()
	momCfg := base()
	momCfg.Opt = opt.Config{Rule: opt.RuleMomentum, Momentum: 0.9}
	nesCfg := base()
	nesCfg.Opt = opt.Config{Rule: opt.RuleNesterov, Momentum: 0.9}
	adamCfg := base()
	adamCfg.Opt = opt.Config{Rule: opt.RuleAdam, Beta2: spec.AdamBeta2}
	// Wire-visible optimizer state: synced second moments ride CHOCO gossip
	// over a float32 wire — narrowed, estimate-tracked, and priced like the
	// parameters themselves. The wire is dense: aggressive quantization of
	// the second moment is catastrophic (v coordinates are orders of
	// magnitude below the parameter deltas sharing the vector norm, so
	// level noise swamps them and Adam's 1/sqrt(v) amplifies it), which is
	// itself a finding of this ablation axis.
	syncCfg := base()
	syncCfg.Strategy = cluster.RingGossip
	syncCfg.Compress = compress.Spec{Kind: compress.KindIdentity, Wire: compress.WireFloat32}
	syncCfg.AdaptGossipGamma = true
	syncCfg.Opt = opt.Config{Rule: opt.RuleAdam, Beta2: spec.AdamBeta2, SyncedMoments: true}
	// SlowMo: fast local momentum plus a slow global-momentum filter at the
	// averaging points.
	slowCfg := base()
	slowCfg.Opt = opt.Config{Rule: opt.RuleMomentum, Momentum: 0.9}
	slowCfg.GlobalMomentum = spec.GlobalMomentum
	normCfg := base()
	normCfg.Compress = compress.Spec{Kind: compress.KindQSGD, Bits: 4}

	type method struct {
		name string
		run  func(w *Workload, label string) *metrics.Trace
	}
	methods := []method{
		{"sgd", fixed(sgdCfg, lrSched)},
		{"momentum", fixed(momCfg, lrSched)},
		{"nesterov", fixed(nesCfg, lrSched)},
		{"adam", fixed(adamCfg, adamSched)},
		{"adam+synced choco", fixed(syncCfg, adamSched)},
		{"slowmo", fixed(slowCfg, lrSched)},
		{"qsgd norm-bits", func(w *Workload, label string) *metrics.Trace {
			ctrl := core.NewAdaCommCompress(core.Config{
				Tau0: spec.Tau, Interval: spec.TimeBudget / 12, Gamma: 0.5,
				Schedule: lrSched,
			}, core.CompressSchedule{Ratio0: 0.5, NormBits: true, Bits0: 4})
			e := w.Engine(normCfg)
			return e.Run(ctrl, label)
		}},
	}

	traces := make([]*metrics.Trace, len(methods))
	forEach(len(methods), func(i int) {
		w := BuildWorkload(ArchLogistic, 4, spec.Workers, spec.Scale, spec.Seed)
		traces[i] = methods[i].run(w, methods[i].name)
	})
	target, rows := linkAwareRows(traces)
	if len(rows) != len(methods) {
		panic(fmt.Sprintf("experiments: optimizer ablation produced %d rows for %d methods",
			len(rows), len(methods)))
	}
	return target, rows
}
