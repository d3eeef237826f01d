package experiments

import (
	"fmt"
	"io"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/paramserver"
	"repro/internal/rng"
)

// adaSyncRow is one parameter-server method's outcome.
type adaSyncRow struct {
	Method       string
	FinalLoss    float64
	TimeToTarget float64
	Updates      int
	MeanStale    float64
}

// adaSyncAblation runs the paper's concluding extension: adapting
// asynchrony in a K-async parameter server. Baselines are fully
// asynchronous (K=1) and fully synchronous (K=m) aggregation; AdaSync grows
// K from 1 toward m as the training loss decreases.
func adaSyncAblation(scale Scale) []adaSyncRow {
	m := 8
	w := BuildWorkload(ArchLogistic, 4, m, scale, 501)
	budget := 400.0
	if scale == ScaleQuick {
		budget = 150
	}
	cfg := paramserver.Config{
		Mode:       paramserver.KAsync,
		BatchSize:  8,
		ComputeY:   rng.Exponential{MeanVal: 1},
		PushDelay:  rng.Constant{Value: 0.1},
		MaxTime:    budget,
		EvalEvery:  25,
		EvalSubset: 400,
		Seed:       502,
	}
	// Re-shard for the PS worker count.
	shards := data.ShardIID(w.Train, m, rng.New(503))

	var traces []*metrics.Trace
	var stale []float64
	for _, rc := range []struct {
		name string
		ctrl paramserver.Controller
	}{
		{"K=1 (async)", paramserver.FixedK{K: 1, LR: 0.1}},
		{fmt.Sprintf("K=%d (sync)", m), paramserver.FixedK{K: m, LR: 0.1}},
		{"AdaSync", paramserver.NewAdaSync(paramserver.AdaSyncConfig{
			K0: 1, M: m, Interval: budget / 10, LR: 0.1,
		})},
	} {
		s, err := paramserver.New(w.Proto, shards, w.Train, cfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		tr, st := s.Run(rc.ctrl, rc.name)
		traces = append(traces, tr)
		stale = append(stale, st.Mean)
	}

	target := reachableTarget(traces, 0.05)
	rows := make([]adaSyncRow, len(traces))
	for i, tr := range traces {
		rows[i] = adaSyncRow{
			Method:       tr.Name,
			FinalLoss:    tr.FinalLoss(),
			TimeToTarget: tr.TimeToLoss(target),
			Updates:      tr.Last().Iter,
			MeanStale:    stale[i],
		}
	}
	return rows
}

// printAdaSync renders the adaptive-asynchrony comparison.
func printAdaSync(w io.Writer, rows []adaSyncRow) {
	fmt.Fprintln(w, "== Extension: adaptive asynchrony (K-async parameter server, m=8) ==")
	fmt.Fprintf(w, "%-14s %12s %12s %10s %12s\n",
		"method", "final loss", "t(target)", "updates", "mean stale")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12.5f %12.2f %10d %12.2f\n",
			r.Method, r.FinalLoss, r.TimeToTarget, r.Updates, r.MeanStale)
	}
}
