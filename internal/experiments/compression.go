package experiments

import (
	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/metrics"
	"repro/internal/sgd"
)

// The compression experiments extend the paper's error-runtime trade-off to
// the communication-VOLUME axis: on a bandwidth-constrained link the
// broadcast cost depends on payload size (delaymodel.SampleDRound), so
// sending fewer bytes buys more local steps per simulated second, at the
// price of a noisier averaging direction — the exact shape of the tau
// trade-off, one level down.

// CompressionGridSpec describes the bandwidth-constrained workload those
// experiments share and how one fixed-tau cell trains on it.
type CompressionGridSpec struct {
	Scale     Scale
	Seed      uint64
	Bandwidth float64 // bytes per simulated second on every link

	BatchSize  int
	LR         float64
	TimeBudget float64
}

// DefaultCompressionGrid is the shipped workload: logistic regression on a
// federated-style link where one dense broadcast costs as much as several
// local steps.
func DefaultCompressionGrid(scale Scale) CompressionGridSpec {
	budget := 2400.0
	if scale == ScaleQuick {
		budget = 800
	}
	return CompressionGridSpec{
		Scale:      scale,
		Seed:       140,
		Bandwidth:  128, // dense 68-param payload = 544 B = 4.25 s per sync
		BatchSize:  4,
		LR:         0.1,
		TimeBudget: budget,
	}
}

// workload builds the shared bandwidth-constrained workload.
func (spec CompressionGridSpec) workload() *Workload {
	w := BuildWorkload(ArchLogistic, 4, 4, spec.Scale, spec.Seed)
	w.Delay.Bandwidth = spec.Bandwidth
	return w
}

// runCell trains one fixed-tau run with the given compressor on w and
// returns its trace alongside the engine (for payload accounting).
func (spec CompressionGridSpec) runCell(w *Workload, tau int, cs compress.Spec, name string) (*cluster.Engine, *metrics.Trace) {
	e := w.Engine(cluster.Config{
		BatchSize:  spec.BatchSize,
		MaxTime:    spec.TimeBudget,
		EvalEvery:  100,
		EvalSubset: 256,
		Compress:   cs,
		Seed:       spec.Seed + 1,
	})
	return e, e.Run(cluster.FixedTau{Tau: tau, Schedule: sgd.Const{Eta: spec.LR}}, name)
}
