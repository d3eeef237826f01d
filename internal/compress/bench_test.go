package compress

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// The compression hot path runs once per worker per averaging round, on a
// vector the size of the full model. Every benchmark here cycles benchCycle
// distinct inputs: a selection or a stochastic rounding fed ONE fixed
// vector trains the branch predictor on a pattern no run repeats (the
// quickselect this package used to ship read 155 us on one 16 400-wide
// vector and 298 us over the cycle). 2^16 coordinates keep the cycle at
// 32 MiB, past every cache level, so the asymptotics (selection vs full
// sort, per-coordinate quantization cost) are visible; the served-dimension
// rows are the two shapes the repository benchmark runs (wire_mix,
// ps_adasync).

const (
	benchDim   = 1 << 16
	benchCycle = 64
)

func benchVecs(dim int) [][]float64 {
	vs := make([][]float64, benchCycle)
	for c := range vs {
		vs[c] = testVec(dim, 42+uint64(c))
	}
	return vs
}

func benchCompressor(b *testing.B, c Compressor, dim int) {
	b.Helper()
	vs := benchVecs(dim)
	dst := make([]float64, dim)
	b.ReportAllocs()
	b.SetBytes(int64(8 * dim))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, err := c.Compress(vs[i%benchCycle])
		if err != nil {
			b.Fatal(err)
		}
		if err := Decode(msg, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopK1pct(b *testing.B)  { benchCompressor(b, NewTopK(0.01), benchDim) }
func BenchmarkTopK10pct(b *testing.B) { benchCompressor(b, NewTopK(0.1), benchDim) }

func BenchmarkRandK1pct(b *testing.B) { benchCompressor(b, NewRandK(0.01, rng.New(1)), benchDim) }

func BenchmarkQSGD4bit(b *testing.B) { benchCompressor(b, NewQSGD(4, rng.New(2)), benchDim) }
func BenchmarkQSGD8bit(b *testing.B) { benchCompressor(b, NewQSGD(8, rng.New(3)), benchDim) }

func BenchmarkTopKWithErrorFeedback(b *testing.B) {
	benchCompressor(b, WithErrorFeedback(NewTopK(0.01)), benchDim)
}

// BenchmarkTopKServed times Compress alone at the served shapes, the new
// chain beside the reference it replaced.
func BenchmarkTopKServed(b *testing.B) {
	for _, s := range []struct {
		dim   int
		ratio float64
		ef    bool
	}{{16400, 0.25, false}, {16400, 0.25, true}, {650, 0.1, true}} {
		var cur, ref Compressor = NewTopK(s.ratio), &refTopK{ratio: s.ratio}
		if s.ef {
			cur, ref = WithErrorFeedback(cur), &refErrorFeedback{inner: ref}
		}
		vs := benchVecs(s.dim)
		for _, c := range []struct {
			name string
			c    Compressor
		}{{"hist", cur}, {"quickselect", ref}} {
			b.Run(fmt.Sprintf("%s/dim%d/%s", cur.Name(), s.dim, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.c.Compress(vs[i%benchCycle]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTopKSelection isolates the threshold step, the dominant cost of
// top-k on large vectors.
func BenchmarkTopKSelection(b *testing.B) {
	vs := benchVecs(benchDim)
	keys := make([]uint64, benchDim)
	var hist [1 << topBits]uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selectKthLargest(vs[i%benchCycle], benchDim/100, keys, &hist)
	}
}
