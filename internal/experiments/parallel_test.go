package experiments

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/delaymodel"
	"repro/internal/metrics"
	"repro/internal/sgd"
)

// Determinism under parallelism: the compute pool inside the engine
// (Config.ComputeWorkers) and the experiment pool across grid cells
// (SetWorkers) must both be invisible in the results — same parameters,
// same trace times, same losses, bit for bit.

func tracesEqual(t *testing.T, name string, a, b *metrics.Trace) {
	t.Helper()
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s: %d points vs %d", name, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		pa, pb := a.Points[i], b.Points[i]
		sameLoss := pa.Loss == pb.Loss || (math.IsNaN(pa.Loss) && math.IsNaN(pb.Loss))
		sameAcc := pa.Acc == pb.Acc || (math.IsNaN(pa.Acc) && math.IsNaN(pb.Acc))
		if pa.Time != pb.Time || pa.Iter != pb.Iter || !sameLoss || !sameAcc ||
			pa.Tau != pb.Tau || pa.LR != pb.LR {
			t.Fatalf("%s: point %d differs: %+v vs %+v", name, i, pa, pb)
		}
	}
}

func paramsEqual(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: param length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: param %d differs: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// TestComputeWorkersBitIdentical pins the tentpole invariant: fanning the
// per-worker local-update loops across 8 goroutines produces the same
// trajectory as the serial loop for a fixed-tau baseline, AdaComm, and the
// link-aware AdaComm that consumes observed per-round timing.
func TestComputeWorkersBitIdentical(t *testing.T) {
	const budget = 250.0
	controllers := []struct {
		name  string
		links bool
		ctrl  func() cluster.Controller
	}{
		{"fixed-tau", false, func() cluster.Controller {
			return cluster.FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}
		}},
		{"adacomm", false, func() cluster.Controller {
			return core.NewAdaComm(core.Config{
				Tau0: 8, Interval: budget / 8, Gamma: 0.5,
				Schedule: sgd.Const{Eta: 0.1},
			})
		}},
		{"adacomm-linkaware", true, func() cluster.Controller {
			return core.NewAdaComm(core.Config{
				Tau0: 8, Interval: budget / 8, Gamma: 0.5,
				Schedule: sgd.Const{Eta: 0.1}, LinkAware: true,
			})
		}},
	}
	run := func(tc int, computeWorkers int, links bool) (*metrics.Trace, []float64) {
		w := BuildWorkload(ArchLogistic, 4, 4, ScaleQuick, 901)
		if links {
			w.Delay.Bandwidth = 256
			ls := make([]delaymodel.Link, 4)
			ls[3].Bandwidth = 25.6
			w.Delay.Links = ls
		}
		e := w.Engine(cluster.Config{
			BatchSize: 8, MaxTime: budget, EvalEvery: 50, EvalSubset: 256,
			ComputeWorkers: computeWorkers,
			Seed:           902,
		})
		tr := e.Run(controllers[tc].ctrl(), controllers[tc].name)
		return tr, e.GlobalParams()
	}
	for i, tc := range controllers {
		t.Run(tc.name, func(t *testing.T) {
			serialTr, serialP := run(i, 1, tc.links)
			poolTr, poolP := run(i, 8, tc.links)
			tracesEqual(t, tc.name, serialTr, poolTr)
			paramsEqual(t, tc.name, serialP, poolP)
		})
	}
}

// TestRunComparisonConcurrentMatchesSerial pins the experiment-pool
// invariant: RunComparison with 8 concurrent methods produces the same
// traces, in the same order, as the serial sweep.
func TestRunComparisonConcurrentMatchesSerial(t *testing.T) {
	spec := TrainSpec{
		Name: "pool-test", Arch: ArchLogistic, Classes: 4, M: 4,
		Scale: ScaleQuick, Seed: 903,
		BatchSize: 4, BaseLR: 0.2, TimeBudget: 300,
		Taus: []int{1, 10}, Tau0: 10, Interval: 30,
	}
	old := SetWorkers(1)
	defer SetWorkers(old)
	serial := RunComparison(spec)
	SetWorkers(8)
	concurrent := RunComparison(spec)

	if len(serial.Order) != len(concurrent.Order) {
		t.Fatalf("order length %d vs %d", len(serial.Order), len(concurrent.Order))
	}
	for i := range serial.Order {
		if serial.Order[i] != concurrent.Order[i] {
			t.Fatalf("order[%d] %q vs %q", i, serial.Order[i], concurrent.Order[i])
		}
		name := serial.Order[i]
		tracesEqual(t, name, serial.Traces[name], concurrent.Traces[name])
	}
}

// samePrintAtAnyPoolWidth runs each named registry row with its grid run
// serially and on an 8-wide experiment pool and requires the same bytes.
func samePrintAtAnyPoolWidth(t *testing.T, names ...string) {
	t.Helper()
	old := SetWorkers(1)
	defer SetWorkers(old)
	for _, name := range names {
		sel, err := SelectAblations(name)
		if err != nil {
			t.Fatal(err)
		}
		var out [2]bytes.Buffer
		for i, width := range []int{1, 8} {
			SetWorkers(width)
			if err := sel[0].Run(&out[i], AblationOptions{Scale: ScaleQuick}); err != nil {
				t.Fatal(err)
			}
		}
		if out[0].String() != out[1].String() {
			t.Fatalf("%s: serial and 8-wide output differ:\n%s\nvs\n%s", name, &out[0], &out[1])
		}
	}
}

// TestAblationGridsConcurrentMatchSerial: the tau0 grid search and the gamma
// ablation pick the same rows under a wide pool as serially.
func TestAblationGridsConcurrentMatchSerial(t *testing.T) {
	samePrintAtAnyPoolWidth(t, "tau0", "gamma")
}

// TestGossipGridConcurrentMatchesSerial: the gossip grid's cells are
// independent engines (each owning its CHOCO estimate state), so the pool
// must not change a byte of the rendered table.
func TestGossipGridConcurrentMatchesSerial(t *testing.T) {
	samePrintAtAnyPoolWidth(t, "gossip")
}

// TestTopologyGridConcurrentMatchesSerial: the topology grid's cells are
// independent engines over independent workloads, so the pool must not
// change a byte of the rendered table.
func TestTopologyGridConcurrentMatchesSerial(t *testing.T) {
	samePrintAtAnyPoolWidth(t, "topology")
}

// poolWidthPinnedAlone names the rows the three tests above pin.
var poolWidthPinnedAlone = map[string]bool{"tau0": true, "gamma": true, "gossip": true, "topology": true}

// TestAblationsIdenticalAtAnyPoolWidth covers every other registry row the
// same way, one subtest per row.
func TestAblationsIdenticalAtAnyPoolWidth(t *testing.T) {
	for _, a := range ablations {
		if poolWidthPinnedAlone[a.Name] {
			continue
		}
		t.Run(a.Name, func(t *testing.T) { samePrintAtAnyPoolWidth(t, a.Name) })
	}
}
