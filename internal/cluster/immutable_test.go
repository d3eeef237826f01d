package cluster

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/sgd"
)

func hashDatasets(dss ...*data.Dataset) uint64 {
	var sum uint64 = 14695981039346656037
	for _, ds := range dss {
		for _, v := range ds.X.Data {
			hashBits(&sum, v)
		}
		for _, y := range ds.Y {
			hashBits(&sum, float64(y))
		}
	}
	return sum
}

// TestEnginesLeaveDatasetsUntouched: the engines' evaluation and test batches
// are views of the datasets they were handed (data.FullBatch), and with no
// EvalSubset the evaluation batch IS the training set, which the shards were
// cut from — so nothing a run does may write a feature or a label. Every
// dataset hashes the same after a run of each engine as before it.
func TestEnginesLeaveDatasetsUntouched(t *testing.T) {
	s, fleet := newSetup(t, 4, 1), asyncSetup(t, 16)
	all := []*data.Dataset{s.train, s.test, fleet.train, fleet.test}
	all = append(append(all, s.shards...), fleet.shards...)
	before := hashDatasets(all...)
	ctrl := FixedTau{Tau: 3, Schedule: sgd.Const{Eta: 0.1}}

	choco := baseCfg()
	choco.MaxIters = 60
	choco.Strategy = RingGossip
	choco.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25}
	choco.Faults = mustFaults(t, "blip:0@r5-8,crash:2@r10,drop:0.15")
	s.engine(t, choco).Run(ctrl, "choco")

	elastic := baseCfg()
	elastic.MaxIters = 60
	elastic.Strategy = ElasticAveraging
	elastic.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25, ErrorFeedback: true}
	elastic.EvalSubset = 100
	s.engine(t, elastic).Run(ctrl, "elastic")

	async := baseAsyncCfg() // K-of-m: the 4 fastest of 8 in flight, 16 clients
	async.Compress = compress.Spec{Kind: compress.KindQSGD, Bits: 4}
	fleet.async(t, async).Run("async")

	if after := hashDatasets(all...); after != before {
		t.Fatalf("a run wrote to a dataset: hash %#x before, %#x after", before, after)
	}
}
