package experiments

import (
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

// optimizerAblation runs every update rule on one 4-worker logistic workload
// and one simulated-time budget, returning the shared target loss and one row
// per rule. adamBeta2 is the Adam rows' second-moment decay (0 = opt's
// default 0.999) and globalMomentum the slowmo row's slow-momentum factor
// (0 = 0.1). The momentum and slowmo rows are the acceptance anchor: at the
// defaults they reach the shared target no later than plain SGD.
func optimizerAblation(scale Scale, adamBeta2, globalMomentum float64) (float64, []linkAwareRow) {
	const (
		tau    = 5
		lr     = 0.1  // SGD-family learning rate
		adamLR = 0.02 // Adam wants a smaller step
		seed   = 911
	)
	budget := 600.0
	if scale == ScaleQuick {
		budget = 240
	}
	if globalMomentum == 0 {
		globalMomentum = 0.1
	}
	lrSched := sgd.Const{Eta: lr}
	adamSched := sgd.Const{Eta: adamLR}
	base := func() cluster.Config {
		return cluster.Config{
			BatchSize:  8,
			MaxTime:    budget,
			EvalEvery:  50,
			EvalSubset: 400,
			Seed:       seed + 1,
		}
	}
	fixed := func(cfg cluster.Config, sched sgd.Schedule) func(w *Workload, label string) *metrics.Trace {
		return func(w *Workload, label string) *metrics.Trace {
			e := w.Engine(cfg)
			return e.Run(cluster.FixedTau{Tau: tau, Schedule: sched}, label)
		}
	}

	sgdCfg := base()
	momCfg := base()
	momCfg.Opt = opt.Config{Rule: opt.RuleMomentum, Momentum: 0.9}
	nesCfg := base()
	nesCfg.Opt = opt.Config{Rule: opt.RuleNesterov, Momentum: 0.9}
	adamCfg := base()
	adamCfg.Opt = opt.Config{Rule: opt.RuleAdam, Beta2: adamBeta2}
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
	syncCfg.Opt = opt.Config{Rule: opt.RuleAdam, Beta2: adamBeta2, SyncedMoments: true}
	// SlowMo: fast local momentum plus a slow global-momentum filter at the
	// averaging points.
	slowCfg := base()
	slowCfg.Opt = opt.Config{Rule: opt.RuleMomentum, Momentum: 0.9}
	slowCfg.GlobalMomentum = globalMomentum
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
				Tau0: tau, Interval: budget / 12, Gamma: 0.5,
				Schedule: lrSched,
			}, core.CompressSchedule{Ratio0: 0.5, NormBits: true, Bits0: 4})
			e := w.Engine(normCfg)
			return e.Run(ctrl, label)
		}},
	}

	traces := make([]*metrics.Trace, len(methods))
	forEach(len(methods), func(i int) {
		w := BuildWorkload(ArchLogistic, 4, 4, scale, seed)
		traces[i] = methods[i].run(w, methods[i].name)
	})
	return linkAwareRows(traces)
}
