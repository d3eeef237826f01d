package compress

import (
	"fmt"
	"testing"
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

func benchCompressor(b *testing.B, spec string, seed uint64, dim int) {
	b.Helper()
	c := mustNew(b, spec, seed)
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

func BenchmarkTopK1pct(b *testing.B)  { benchCompressor(b, "topk:0.01", 0, benchDim) }
func BenchmarkTopK10pct(b *testing.B) { benchCompressor(b, "topk:0.1", 0, benchDim) }

func BenchmarkRandK1pct(b *testing.B) { benchCompressor(b, "randk:0.01", 1, benchDim) }

func BenchmarkQSGD4bit(b *testing.B) { benchCompressor(b, "qsgd:4", 2, benchDim) }
func BenchmarkQSGD8bit(b *testing.B) { benchCompressor(b, "qsgd:8", 3, benchDim) }

func BenchmarkTopKWithErrorFeedback(b *testing.B) {
	benchCompressor(b, "topk:0.01+ef", 0, benchDim)
}

// BenchmarkTopKServed times what the engines run at the three served forms:
// CompressInto on one long-lived Message, which after the first call
// allocates nothing.
func BenchmarkTopKServed(b *testing.B) {
	for _, s := range []struct {
		dim  int
		spec string
	}{{650, "topk:0.1+ef"}, {16400, "topk:0.25+f32"}, {16400, "topk:0.25+ef"}} {
		c := mustNew(b, s.spec, 1)
		vs := benchVecs(s.dim)
		msg := new(Message)
		b.Run(fmt.Sprintf("%s/dim%d", s.spec, s.dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.CompressInto(vs[i%benchCycle], msg)
			}
		})
	}
}

// BenchmarkTopKSelection isolates the threshold step, the dominant cost of
// top-k on large vectors.
func BenchmarkTopKSelection(b *testing.B) {
	vs := benchVecs(benchDim)
	var keys []uint64
	var hist [1 << topBits]uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selectKthLargest(vs[i%benchCycle], benchDim/100, &keys, &hist)
	}
}
