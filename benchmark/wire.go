package main

import (
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sgd"
)

// wire_mix is the sync-dominated lock-step workload: a wide logistic model
// (16 400 parameters at full size) on 16 workers that synchronize every two
// steps over a bandwidth-priced link, so compression, the communicator and
// the mixing strategies carry most of the wall-clock.

const (
	wireWorkers = 16
	wireClasses = 16
	wireBatch   = 2
	wireTau     = 2
	wireLR      = 0.05
	wireChurn   = "blip:3@r50-120,slow:7x4@r20-200,drop:0.05"
)

func mustSpec(s string) compress.Spec {
	spec, err := compress.ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

func mustTopology(s string) comm.Topology {
	t, err := comm.ParseTopology(s)
	if err != nil {
		panic(err)
	}
	return t
}

func mustFaults(s string) *faults.Schedule {
	f, err := faults.Parse(s)
	if err != nil {
		panic(err)
	}
	return f
}

func wireCells(seed uint64, sz sizes) ([]*cell, error) {
	r := rng.New(subSeed(seed, 20))
	nTrain, nTest := 2048, 256
	full := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: wireClasses, Dim: sz.wireDim, N: nTrain + nTest,
		Separation: 4, Noise: 1.5, LabelNoise: 0.1,
	}, r)
	train, test := data.SplitTrainTest(full, nTest, r)
	proto := nn.NewLogisticRegression(sz.wireDim, wireClasses)
	proto.InitParams(r.Split())
	shards := data.ShardIID(train, wireWorkers, r.Split())
	dm := delaymodel.FederatedProfile(1, 65536).Model(wireWorkers, delaymodel.ConstantScaling{})

	base := cluster.Config{
		BatchSize: wireBatch, MaxIters: sz.wireIters,
		EvalEvery: 20, EvalSubset: 512, ComputeWorkers: 1,
		Seed: subSeed(seed, 21),
	}
	sched := sgd.Const{Eta: wireLR}
	fixed := func() cluster.Controller { return cluster.FixedTau{Tau: wireTau, Schedule: sched} }
	mk := func(name string, manual bool, compressProbe string, ctrl func() cluster.Controller, edit func(*cluster.Config)) *cell {
		cfg := base
		edit(&cfg)
		return lockstep{
			name: name, m: wireWorkers, maxIters: cfg.MaxIters, manual: manual,
			nnProbe: "nn.lossgrad_us.wide", compressProbe: compressProbe,
			newEngine: func() (*cluster.Engine, error) {
				return cluster.New(proto, shards, train, test, dm, cfg)
			},
			newCtrl: ctrl,
		}.cell()
	}
	choco := func(c *cluster.Config) {
		c.Strategy = cluster.RingGossip
		c.Topology = mustTopology("torus:4x4")
		c.Compress = mustSpec("topk:0.25+f32")
		c.AdaptGossipGamma = true
	}
	return []*cell{
		mk("choco_torus", true, "compress.topk_us", fixed, choco),
		mk("choco_torus_churn", false, "compress.topk_us", fixed, func(c *cluster.Config) {
			choco(c)
			c.Faults = mustFaults(wireChurn)
		}),
		mk("full_dense", true, "", fixed, func(c *cluster.Config) {}),
		mk("full_qsgd_ring", false, "compress.qsgd_us", func() cluster.Controller {
			// The joint (tau, ratio) controller: the one cell whose
			// compressor is retuned between rounds.
			return core.NewAdaCommCompress(core.Config{
				Tau0: wireTau, Interval: float64(sz.wireIters) / 10, Gamma: 0.5, Schedule: sched,
			}, core.CompressSchedule{Ratio0: 0.25})
		}, func(c *cluster.Config) {
			c.Compress = mustSpec("qsgd:4")
			c.Topology = mustTopology("ring")
		}),
		mk("elastic_topk", true, "compress.topk_ef_us", fixed, func(c *cluster.Config) {
			c.Strategy = cluster.ElasticAveraging
			c.Compress = mustSpec("topk:0.25+ef")
		}),
	}, nil
}

var wireMix = &workload{
	name:     "wire_mix",
	why:      "sync-dominated lock-step: compress, comm and the mixing strategies are most of the wall; dense all-reduce sits beside sparse gossip so a gain on one wire path that costs the other shows",
	headline: "choco_torus", baseline: "full_dense",
	// Seed 1 reaches 0.12 of its initial loss at 63% of the budget; the worst
	// of seeds 1-20 ends at 0.046.
	target: 0.12,
	setup: func(seed uint64, sz sizes) ([]*cell, error) {
		setSerial()
		return wireCells(seed, sz)
	},
	derive: func(m measured, out map[string]float64) {
		wall := m.last().cellWall
		out["cluster.churn_overhead_s"] = wall["choco_torus_churn"] - wall["choco_torus"]
	},
}
