package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/metrics"
	"repro/internal/sgd"
)

// The wire ablation isolates the float32 wire format from sparsification:
// both runs average the FULL model (identity compressor), differing only in
// the width of each value on the link. On a bandwidth-constrained cluster
// the narrow wire halves every broadcast, so the float32 run fits more
// rounds into the same simulated budget while its trajectory tracks the
// float64 one to within the ~2^-24 relative narrowing error per round.

// wireBandwidth is the link both runs share, in bytes per simulated second: a
// dense 68-parameter float64 payload (544 B) costs 4.25 s per sync, as much
// as several local steps.
const wireBandwidth = 128.0

// wireAblationResult compares dense full averaging over a float64 wire
// against the same run over a float32 wire.
type wireAblationResult struct {
	Tau         int
	Target      float64 // shared loss level both runs reach
	Wide        *metrics.Trace
	Narrow      *metrics.Trace
	WideBytes   int // per-round payload, float64 wire
	NarrowBytes int // per-round payload, float32 wire
	TimeWide    float64
	TimeNarrow  float64
	Speedup     float64 // TimeWide / TimeNarrow
}

// wireAblation runs the pair on one bandwidth-constrained logistic workload
// at a fixed tau. Both runs see identical seeds; the only difference is the
// Spec's wire format.
func wireAblation(scale Scale) wireAblationResult {
	const (
		tau  = 5
		seed = 140
	)
	budget := 2400.0
	if scale == ScaleQuick {
		budget = 800
	}
	w := BuildWorkload(ArchLogistic, 4, 4, scale, seed)
	w.Delay.Bandwidth = wireBandwidth

	pair := []compress.Spec{
		{Kind: compress.KindIdentity},
		{Kind: compress.KindIdentity, Wire: compress.WireFloat32},
	}
	names := []string{"f64 wire", "f32 wire"}
	traces := make([]*metrics.Trace, len(pair))
	bytesPerRound := make([]int, len(pair))
	forEach(len(pair), func(i int) {
		e := w.Engine(cluster.Config{
			BatchSize:  4,
			MaxTime:    budget,
			EvalEvery:  100,
			EvalSubset: 256,
			Compress:   pair[i],
			Seed:       seed + 1,
		})
		traces[i] = e.Run(cluster.FixedTau{Tau: tau, Schedule: sgd.Const{Eta: 0.1}}, names[i])
		bytesPerRound[i] = e.CommBytesPerRound()
	})

	res := wireAblationResult{
		Tau:         tau,
		Target:      reachableTarget(traces, 0.05),
		Wide:        traces[0],
		Narrow:      traces[1],
		WideBytes:   bytesPerRound[0],
		NarrowBytes: bytesPerRound[1],
	}
	res.TimeWide = res.Wide.TimeToLoss(res.Target)
	res.TimeNarrow = res.Narrow.TimeToLoss(res.Target)
	res.Speedup = res.TimeWide / res.TimeNarrow
	return res
}

// printWireAblation renders the pair.
func printWireAblation(w io.Writer, res wireAblationResult) {
	fmt.Fprintf(w, "== Float32 vs float64 wire at tau=%d, bandwidth %g B/s ==\n",
		res.Tau, wireBandwidth)
	fmt.Fprintf(w, "payload/round: f64 %d B, f32 %d B\n", res.WideBytes, res.NarrowBytes)
	fmt.Fprintf(w, "target loss %.5f: f64 %.2f s, f32 %.2f s (%.2fx)\n",
		res.Target, res.TimeWide, res.TimeNarrow, res.Speedup)
}
