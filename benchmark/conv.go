package main

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

// The conv workloads train the two miniature conv nets of Fig 9 and Fig 10.
// conv_pasgd runs every cell serially; conv_pooled runs the same cells the
// way a user does, through the experiment pool and the engine pool.

// convEvalEvery is the trace resolution of the conv cells in iterations.
// The figures ship 100, which leaves the headline four trace points at the
// benchmark's budget — too few to read a time-to-target off.
const convEvalEvery = 20

// convSpecs returns the Fig 9 (VGG) and Fig 10 (ResNet) quick specs with the
// benchmark's budgets and the seed folded in.
func convSpecs(seed uint64, sz sizes) (vgg, resnet experiments.TrainSpec) {
	vgg = experiments.Fig9Spec(10, false, experiments.ScaleQuick)
	vgg.Seed = subSeed(seed, 9)
	vgg.TimeBudget = sz.vggSimS
	vgg.BatchSize = sz.convBatch
	vgg.Interval = sz.vggSimS / 10
	vgg.EvalEvery = convEvalEvery
	resnet = experiments.Fig10Spec(10, false, experiments.ScaleQuick)
	resnet.Seed = subSeed(seed, 10)
	resnet.TimeBudget = sz.resnetSimS
	resnet.BatchSize = sz.convBatch
	resnet.Interval = sz.resnetSimS / 10
	resnet.EvalEvery = convEvalEvery
	return vgg, resnet
}

// convEngineConfig mirrors the cluster.Config RunComparison builds from a
// TrainSpec (its unexported defaults written out). conv_pooled checks the
// mirror: its RunComparison losses must equal these cells' bit for bit.
func convEngineConfig(spec experiments.TrainSpec, pool int) cluster.Config {
	return cluster.Config{
		BatchSize:      spec.BatchSize,
		MaxTime:        spec.TimeBudget,
		EvalEvery:      spec.EvalEvery,
		EvalSubset:     512,
		AccEverySync:   5,
		ComputeWorkers: pool,
		Seed:           spec.Seed + 1,
	}
}

func adaComm(spec experiments.TrainSpec) cluster.Controller {
	return core.NewAdaComm(core.Config{
		Tau0: spec.Tau0, Interval: spec.Interval, Gamma: 0.5,
		Schedule: sgd.Const{Eta: spec.BaseLR}, Coupling: core.NoCoupling,
	})
}

// convCell is one serial-or-pooled engine cell on a conv workload.
func convCell(name string, w *experiments.Workload, spec experiments.TrainSpec, pool int,
	ctrl func() cluster.Controller) *cell {
	return convLockstep(name, spec, lockstep{
		newEngine: func() (*cluster.Engine, error) {
			return cluster.New(w.Proto, w.Shards, w.Train, w.Test, w.Delay, convEngineConfig(spec, pool))
		},
		newCtrl: ctrl,
	}).cell()
}

// convLockstep fills in what every conv cell shares: worker count, the
// probes that price its model, and that the manual drivers reproduce it.
func convLockstep(name string, spec experiments.TrainSpec, l lockstep) lockstep {
	l.name, l.m, l.manual = name, spec.M, true
	l.nnProbe = "nn.lossgrad_us.resnet"
	if spec.Arch == experiments.ArchVGG {
		l.nnProbe, l.tensorProbe = "nn.lossgrad_us.vgg", "tensor.lossgrad_ops_us.vgg"
	}
	return l
}

// vggMethods are the Fig 9 methods in RunComparison's display order, with
// the cell name each has here.
var vggMethods = []struct {
	cell, method string
	tau          int // 0 = AdaComm
}{
	{"vgg_tau1", "tau=1", 1},
	{"vgg_tau20", "tau=20", 20},
	{"vgg_tau100", "tau=100", 100},
	{"vgg_adacomm", "AdaComm", 0},
}

// serialConvCells builds the five conv cells with every pool at width 1.
func serialConvCells(seed uint64, sz sizes) []*cell {
	vgg, resnet := convSpecs(seed, sz)
	vw := experiments.BuildWorkload(vgg.Arch, vgg.Classes, vgg.M, vgg.Scale, vgg.Seed)
	rw := experiments.BuildWorkload(resnet.Arch, resnet.Classes, resnet.M, resnet.Scale, resnet.Seed)
	var cells []*cell
	for _, m := range vggMethods {
		ctrl := func() cluster.Controller { return adaComm(vgg) }
		if tau := m.tau; tau > 0 {
			ctrl = func() cluster.Controller {
				return cluster.FixedTau{Tau: tau, Schedule: sgd.Const{Eta: vgg.BaseLR}}
			}
		}
		cells = append(cells, convCell(m.cell, vw, vgg, 1, ctrl))
	}
	return append(cells, convCell("resnet_adacomm", rw, resnet, 1,
		func() cluster.Controller { return adaComm(resnet) }))
}

// convTarget: over seeds 1-20 the headline's lowest loss is 0.016 to 0.051 of
// its initial loss, so 0.1 is reached by every seed (seed 1 at 30% of the
// budget, none later than 52%) while 0.05 is missed by two of the twenty.
const convTarget = 0.1

var convPASGD = &workload{
	name:     "conv_pasgd",
	why:      "serial conv training: >90% of wall is nn+tensor, so kernel work shows here and comm/compress/event work must not",
	headline: "vgg_adacomm", baseline: "vgg_tau1", target: convTarget,
	setup: func(seed uint64, sz sizes) ([]*cell, error) {
		experiments.SetWorkers(1)
		tensor.SetWorkers(1)
		return serialConvCells(seed, sz), nil
	},
}

// poolWidth is P, the width conv_pooled gives every pool.
func poolWidth() int { return min(runtime.NumCPU(), 4) }

// pooledConvCells is the same five cells as a user runs them: the four VGG
// methods through RunComparison on the experiment pool, the ResNet cell as
// one engine with a P-wide compute pool.
func pooledConvCells(seed uint64, sz sizes) []*cell {
	vgg, resnet := convSpecs(seed, sz)
	p := poolWidth()
	rw := experiments.BuildWorkload(resnet.Arch, resnet.Classes, resnet.M, resnet.Scale, resnet.Seed)
	fig := &cell{
		name:  "vgg_fig9",
		build: func() error { return nil }, // RunComparison builds its own workload
		run: func() ([]outcome, error) {
			cmp := experiments.RunComparison(vgg)
			var outs []outcome
			for _, m := range vggMethods {
				tr, ok := cmp.Traces[m.method]
				if !ok {
					return nil, fmt.Errorf("RunComparison returned no %q trace", m.method)
				}
				steps := int64(tr.Last().Iter) * int64(vgg.M)
				outs = append(outs, outcome{cell: m.cell, trace: tr, steps: steps,
					costs: convLockstep(m.cell, vgg, lockstep{}).costs(steps, 0)})
			}
			return outs, nil
		},
	}
	return []*cell{fig, convCell("resnet_adacomm", rw, resnet, p,
		func() cluster.Controller { return adaComm(resnet) })}
}

var convPooled = &workload{
	name:     "conv_pooled",
	why:      "the same conv cells through the experiment pool and the engine pool: the only workload where par and the pools can show",
	headline: "vgg_adacomm", baseline: "vgg_tau1", target: convTarget,
	setup: func(seed uint64, sz sizes) ([]*cell, error) {
		experiments.SetWorkers(poolWidth())
		tensor.SetWorkers(1)
		return pooledConvCells(seed, sz), nil
	},
	// The serial cells are the reference: every pooled trace must equal its
	// serial one bit for bit, which also catches drift between the mirrored
	// engine config above and what RunComparison builds. RunComparison hides
	// its engines, so the VGG cells' wire bytes and parameter hashes are the
	// reference's — the traces being equal, they are the same numbers.
	reference: convPASGD,
	check: func(ref, outs []outcome) error {
		if err := sameTraces(ref, outs); err != nil {
			return err
		}
		for i := range outs {
			if outs[i].rec != nil {
				continue
			}
			for _, r := range ref {
				if r.cell == outs[i].cell {
					outs[i].wireBytes, outs[i].hash = r.wireBytes, r.hash
				}
			}
		}
		return nil
	},
	derive: func(m measured, out map[string]float64) {
		out["experiments.fig_wall_s"] = m.last().cellWall["vgg_fig9"]
		out["par.pool_width"] = float64(poolWidth())
		// RunComparison generates the VGG data inside its wall, the serial
		// cells in their set-up: set-up plus wall covers the same work on
		// both sides.
		e := m.endToEnd()
		out["par.pool_speedup"] = (m.ref.setupS + m.ref.wallS) / (e["setup_s"].Value + e["wall_s"].Value)
	},
}

// sameTraces reports the first cell whose pooled trace is not bit-equal to
// the serial one, point for point.
func sameTraces(serial, pooled []outcome) error {
	for _, s := range serial {
		var p *outcome
		for i := range pooled {
			if pooled[i].cell == s.cell {
				p = &pooled[i]
			}
		}
		if p == nil {
			return fmt.Errorf("pooled run has no cell %s", s.cell)
		}
		if len(p.trace.Points) != len(s.trace.Points) {
			return fmt.Errorf("%s: %d pooled trace points, %d serial", s.cell, len(p.trace.Points), len(s.trace.Points))
		}
		for i, sp := range s.trace.Points {
			pp := p.trace.Points[i]
			if math.Float64bits(sp.Loss) != math.Float64bits(pp.Loss) || sp.Iter != pp.Iter ||
				math.Float64bits(sp.Time) != math.Float64bits(pp.Time) {
				return fmt.Errorf("%s: point %d differs: serial (%v, %d, %v) pooled (%v, %d, %v)",
					s.cell, i, sp.Time, sp.Iter, sp.Loss, pp.Time, pp.Iter, pp.Loss)
			}
		}
	}
	return nil
}
