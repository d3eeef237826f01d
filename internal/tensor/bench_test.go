package tensor

import (
	"fmt"
	"testing"
)

// benchGemm compares the naive reference against the blocked kernel on
// dense data (no exact zeros, so the naive zero-skip never fires). At
// sizes where B fits L2 the naive triple loop already runs at the scalar
// FP ceiling; the blocked kernel's margin grows with the working set.
func benchGemm(b *testing.B, n int, naive bool) {
	am := NewMatrix(n, n)
	bm := NewMatrix(n, n)
	cm := NewMatrix(n, n)
	r := parityRNG(99)
	for i := range am.Data {
		am.Data[i] = r.next() + 2
		bm.Data[i] = r.next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			GemmNaive(1, am, bm, 0, cm)
		} else {
			Gemm(1, am, bm, 0, cm)
		}
	}
}

func BenchmarkGemm(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("naive/%d", n), func(b *testing.B) { benchGemm(b, n, true) })
		b.Run(fmt.Sprintf("blocked/%d", n), func(b *testing.B) { benchGemm(b, n, false) })
	}
}

// BenchmarkConvProducts times the three per-sample products of a conv layer
// at the shapes VGGNano and ResNetNano run (F filters, L = C*K*K patch
// length, P output positions), with the operand patterns training produces:
// a dense forward, and a gradient operand G with the given share of exact
// zeros (post-ReLU 0.5, post-ReLU-and-pool 0.875) as the coefficient matrix
// of both backward products.
func BenchmarkConvProducts(b *testing.B) {
	for _, sh := range []struct {
		name    string
		f, l, p int
		zeros   float64
	}{
		{"vgg1", 8, 9, 64, 0.875},
		{"vgg2", 16, 72, 16, 0.875},
		{"resnet", 8, 72, 64, 0.5},
	} {
		r := parityRNG(7)
		dense := func(rows, cols int) *Matrix {
			m := NewMatrix(rows, cols)
			for i := range m.Data {
				m.Data[i] = r.next() + 2
			}
			return m
		}
		w, x := dense(sh.f, sh.l), dense(sh.p, sh.l)
		// Many zero patterns, cycled: one fixed pattern would let the
		// branch predictor learn a skip that training never repeats.
		gs := make([]*Matrix, 64)
		for n := range gs {
			gs[n] = dense(sh.f, sh.p)
			for i := range gs[n].Data {
				if (r.next()+1)/2 < sh.zeros {
					gs[n].Data[i] = 0
				}
			}
		}
		out, dw, dx := NewMatrix(sh.f, sh.p), NewMatrix(sh.f, sh.l), NewMatrix(sh.p, sh.l)
		b.Run(sh.name+"/fwd", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemmTB(1, w, x, 0, out)
			}
		})
		b.Run(sh.name+"/dW", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Gemm(1, gs[i%len(gs)], x, 1, dw)
			}
		})
		b.Run(sh.name+"/dX", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemmTA(1, gs[i%len(gs)], w, 0, dx)
			}
		})
	}
}
