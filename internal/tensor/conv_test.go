package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// convTwin holds Convolve, on whichever tier runs, to the lowered product
// written out with the canonical kernel — Lower + GemmTBNaive + the bias
// loop — bit for bit, with sentinels past out and past pad; pad is handed in
// with a zero border and a NaN interior, so a window read before the frame
// or off the image shows. Where a product or an add of an element meets two
// NaNs the surviving payload is operand order, which the Go loops leave to
// the compiler, so there the reference only demands a NaN — and on the
// kernel, which fixes the order (the pad value first in a product, the
// running sum first in an add), the element must be convolveModel's exactly.
// With relu the reference and the model are those sums through reluGo, and
// Convolve folds the ReLU in.
func convTwin(t *testing.T, s ConvShape, nf int, img, weights, bias []float64, relu bool) {
	t.Helper()
	p, l := s.OutHeight()*s.OutWidth(), s.PatchLen()
	w := &Matrix{Rows: nf, Cols: l, Data: weights}

	x := NewMatrix(p, l)
	want := make([]float64, nf*p)
	Lower(s, img, make([]float64, s.PadLen()), x)
	GemmTBNaive(1, w, x, 0, &Matrix{Rows: nf, Cols: p, Data: want})
	for f, b := range bias {
		for pos := range want[f*p : (f+1)*p] {
			want[f*p+pos] += b
		}
	}
	model, twoNaNs := convolveModel(x, w, bias)
	if relu {
		reluGo(want, want)
		reluGo(model, model)
	}

	padWhole := filled(s.PadLen()+5, valSentinel)
	pad := padWhole[:s.PadLen()]
	Zero(pad)
	nans := filled(len(img), math.NaN())
	s.frame(nans, pad)
	outWhole := filled(nf*p+5, valSentinel)
	out := outWhole[:nf*p]
	var patches *Matrix
	if !s.Direct() {
		patches = NewMatrix(p, l)
		Fill(patches.Data, math.NaN())
	}
	Convolve(s, w, bias, img, pad, patches, out, relu)
	for i, g := range out {
		gb, wb, mb := math.Float64bits(g), math.Float64bits(want[i]), math.Float64bits(model[i])
		switch {
		case !twoNaNs[i] && mb != wb:
			t.Fatalf("Convolve %+v F=%d: the model says out[%d] = %#x, the reference %#x: the test's model is wrong",
				s, nf, i, mb, wb)
		case gb != wb && (!twoNaNs[i] || !math.IsNaN(g) || !math.IsNaN(want[i])):
			t.Fatalf("Convolve %+v F=%d relu=%v (%s): out[%d] = %#x, the lowered product %#x",
				s, nf, relu, Kernels(), i, gb, wb)
		case s.Direct() && gb != mb:
			t.Fatalf("Convolve %+v F=%d relu=%v: out[%d] = %#x where two NaNs met, the kernel's operand order gives %#x",
				s, nf, relu, i, gb, mb)
		}
	}
	intactPast(t, "Convolve's out", outWhole, len(out), valSentinel)
	intactPast(t, "Convolve's pad", padWhole, len(pad), valSentinel)
	if i, ok := bitsEqual(pad, framed(s, img)); !ok {
		t.Fatalf("Convolve %+v: pad[%d] = %v, want the framed image's %v", s, i, pad[i], framed(s, img)[i])
	}
}

// framed returns img inside a zero border, element by element.
func framed(s ConvShape, img []float64) []float64 {
	hp, wp := s.Height+2*s.Pad, s.Width+2*s.Pad
	pad := make([]float64, s.PadLen())
	for c := 0; c < s.Channels; c++ {
		for y := 0; y < s.Height; y++ {
			for xx := 0; xx < s.Width; xx++ {
				pad[(c*hp+y+s.Pad)*wp+xx+s.Pad] = img[(c*s.Height+y)*s.Width+xx]
			}
		}
	}
	return pad
}

// convolveModel is the dot form of each output element with every NaN's
// fate spelled out: sum from +0, then sum + x*w per patch element in
// ascending order and sum + bias, where an operation that meets two NaNs
// returns its FIRST operand's, quieted (the x86 rule), the pad value being
// the product's first operand and the sum the add's. twoNaNs marks the
// elements where that happened.
func convolveModel(x, w *Matrix, bias []float64) (out []float64, twoNaNs []bool) {
	const quiet = 1 << 51
	first := func(a, b float64, op func(a, b float64) float64, met *bool) float64 {
		if math.IsNaN(a) && math.IsNaN(b) {
			*met = true
			return math.Float64frombits(math.Float64bits(a) | quiet)
		}
		return op(a, b)
	}
	mul := func(a, b float64) float64 { return a * b }
	add := func(a, b float64) float64 { return a + b }
	p := x.Rows
	out, twoNaNs = make([]float64, w.Rows*p), make([]bool, w.Rows*p)
	for f := 0; f < w.Rows; f++ {
		for pos := 0; pos < p; pos++ {
			met, sum := &twoNaNs[f*p+pos], 0.0
			for k, v := range x.Row(pos) {
				sum = first(sum, first(v, w.At(f, k), mul, met), add, met)
			}
			out[f*p+pos] = first(sum, bias[f], add, met)
		}
	}
	return out, twoNaNs
}

// convCases are the zoo's convs (VGGNano's conv1 on three channels and on
// the gray quick-scale input, its conv2, ResNetNano's trunk), the shapes the
// kernel covers at its edges (six filters: a four-filter tile and two single
// filters; OutWidth 12 and OutWidth 4 at an odd height: a tile whose groups
// straddle two output rows and a last lone group; no padding and padding 2),
// and shapes it declines, which run the lowered product (a 5x5 kernel,
// stride 2, OutWidth 6).
var convCases = []struct {
	s  ConvShape
	nf int
}{
	{ConvShape{Channels: 3, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 1}, 8},
	{ConvShape{Channels: 1, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 1}, 8},
	{ConvShape{Channels: 8, Height: 4, Width: 4, Kernel: 3, Stride: 1, Pad: 1}, 16},
	{ConvShape{Channels: 8, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 1}, 8},
	{ConvShape{Channels: 8, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 1}, 6},
	{ConvShape{Channels: 2, Height: 3, Width: 12, Kernel: 3, Stride: 1, Pad: 1}, 5},
	{ConvShape{Channels: 2, Height: 3, Width: 4, Kernel: 3, Stride: 1, Pad: 1}, 4},
	{ConvShape{Channels: 2, Height: 6, Width: 6, Kernel: 3, Stride: 1, Pad: 0}, 3},
	{ConvShape{Channels: 1, Height: 2, Width: 2, Kernel: 3, Stride: 1, Pad: 2}, 1},
	{ConvShape{Channels: 3, Height: 8, Width: 8, Kernel: 5, Stride: 1, Pad: 2}, 8},
	{ConvShape{Channels: 3, Height: 8, Width: 8, Kernel: 3, Stride: 2, Pad: 1}, 8},
	{ConvShape{Channels: 3, Height: 6, Width: 6, Kernel: 3, Stride: 1, Pad: 1}, 8},
}

// TestConvolveMatchesLoweredProduct runs the table on both tiers with
// finite values (exact zeros of both signs among them), then with NaNs of
// distinct payload, infinities and -0 planted in the image, the weights and
// the bias so that products meet NaN x NaN and 0 x Inf and sums meet
// Inf + -Inf and NaN + NaN, then with every operand a NaN of its own
// payload, so that an interior window's first product meets two NaNs and
// its payload decides the sum's: there each operand order shows. The AVX2
// half must take the kernel exactly on the shapes Direct accepts.
func TestConvolveMatchesLoweredProduct(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		r := parityRNG(71)
		for _, c := range convCases {
			direct := useAVX2 && c.s.Kernel == 3 && c.s.Stride == 1 && c.s.OutWidth()%4 == 0
			if c.s.Direct() != direct {
				t.Fatalf("%+v: Direct() = %v on the %s tier", c.s, c.s.Direct(), Kernels())
			}
			img := make([]float64, c.s.Channels*c.s.Height*c.s.Width)
			weights := make([]float64, c.nf*c.s.PatchLen())
			bias := make([]float64, c.nf)
			for plant := 0; plant < 4; plant++ {
				fillParity(&r, img)
				fillParity(&r, weights)
				fillParity(&r, bias)
				if plant > 0 {
					plantConvSpecials(img, weights, bias, plant)
				}
				for _, relu := range []bool{false, true} {
					convTwin(t, c.s, c.nf, img, weights, bias, relu)
				}
			}
		}
	})
}

// plantConvSpecials writes NaNs of distinct payload and sign, infinities of
// both signs and -0 over a stride of each operand, the strides chosen so the
// planted weights and pixels meet in products; seed 3 makes every element of
// all three a NaN, quiet or signalling, of either sign and its own payload.
func plantConvSpecials(img, weights, bias []float64, seed int) {
	if seed == 3 {
		for i, vs := range [][]float64{img, weights, bias} {
			for j := range vs {
				vs[j] = math.Float64frombits(0x7FF0000000000000 | uint64(j%2)<<63 | uint64(j/2%2)<<51 |
					uint64(i+1)<<40 | uint64(j+1))
			}
		}
		return
	}
	specials := []float64{
		math.Float64frombits(0x7FF8000000000123), math.Float64frombits(0xFFF0000000000456), // quiet; signalling, negative
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.Float64frombits(0x7FF4000000000789), math.Float64frombits(0xFFF8000000000abc),
	}
	for i, vs := range [][]float64{img, weights, bias} {
		for j := (seed + i) % 3; j < len(vs); j += 3 + i {
			vs[j] = specials[(j+seed*i)%len(specials)]
		}
	}
}

// FuzzConvolveTwin runs convTwin on both tiers, with and without the folded
// ReLU, over C 1-8, H 1-9, W 1-13, K 1-5, stride 1-2, pad 0-2 and 1-9
// filters (shapes without an output are skipped), the image, the weights and
// the bias cycling through the fuzzer's raw float64 words.
func FuzzConvolveTwin(f *testing.F) {
	specials := []float64{math.Float64frombits(0x7FF8000000000123), math.Float64frombits(0xFFF4000000000456),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -2.25, 5e-324, math.MaxFloat64}
	var words []byte
	for _, v := range specials {
		words = binary.LittleEndian.AppendUint64(words, math.Float64bits(v))
	}
	f.Add(uint8(8), uint8(8), uint8(8), uint8(3), uint8(1), uint8(1), uint8(8), words)
	f.Add(uint8(2), uint8(8), uint8(8), uint8(3), uint8(1), uint8(1), uint8(7), words[:24])
	f.Add(uint8(7), uint8(4), uint8(4), uint8(3), uint8(1), uint8(1), uint8(15), words[8:])
	f.Add(uint8(1), uint8(3), uint8(12), uint8(3), uint8(1), uint8(1), uint8(5), words[16:56])
	f.Add(uint8(2), uint8(7), uint8(5), uint8(3), uint8(2), uint8(2), uint8(2), words[8:32])
	f.Fuzz(func(t *testing.T, c, h, w, k, stride, pad, nf uint8, raw []byte) {
		s := ConvShape{Channels: int(c%8) + 1, Height: int(h%9) + 1, Width: int(w%13) + 1,
			Kernel: int(k%5) + 1, Stride: int(stride%2) + 1, Pad: int(pad % 3)}
		if s.Height+2*s.Pad < s.Kernel || s.Width+2*s.Pad < s.Kernel {
			t.Skip("no output")
		}
		if len(raw) < 8 {
			t.Skip("no float64 word")
		}
		value := func(i int) float64 {
			j := 8 * (i % (len(raw) / 8))
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[j:]))
		}
		filters := int(nf%9) + 1
		img := make([]float64, s.Channels*s.Height*s.Width)
		weights := make([]float64, filters*s.PatchLen())
		bias := make([]float64, filters)
		n := 0
		for _, vs := range [][]float64{img, weights, bias} {
			for i := range vs {
				vs[i] = value(n)
				n++
			}
		}
		eachTier(t, func(t *testing.T) {
			for _, relu := range []bool{false, true} {
				convTwin(t, s, filters, img, weights, bias, relu)
			}
		})
	})
}

// poolTwin holds MaxPool, on whichever tier runs, to poolImageGo on values
// and argmax, with sentinels past dst and argmax.
func poolTwin(t *testing.T, src []float64, width int) {
	t.Helper()
	n := len(src) / 4
	dstWhole, argWhole := filled(n+5, valSentinel), filled(n+5, idxSentinel)
	MaxPool(src, width, dstWhole[:n], argWhole[:n])
	want, wantArg := make([]float64, n), make([]int, n)
	poolImageGo(src, width, want, wantArg)
	if i, ok := bitsEqual(dstWhole[:n], want); !ok {
		t.Fatalf("MaxPool width %d rows %d (%s): dst[%d] = %#x, the Go loop %#x",
			width, len(src)/width, Kernels(), i, math.Float64bits(dstWhole[i]), math.Float64bits(want[i]))
	}
	for i, a := range wantArg {
		if argWhole[i] != a {
			t.Fatalf("MaxPool width %d rows %d (%s): argmax[%d] = %d, the Go loop %d",
				width, len(src)/width, Kernels(), i, argWhole[i], a)
		}
	}
	intactPast(t, "MaxPool's dst", dstWhole, n, valSentinel)
	intactPast(t, "MaxPool's argmax", argWhole, n, idxSentinel)
}

// poolSpecials are the values a window's comparisons can disagree on: ties
// of both zero signs, NaNs of either sign and payload, infinities.
var poolSpecials = []float64{0, math.Copysign(0, -1), 1, 1, math.Float64frombits(0x7FF8000000000123),
	math.Float64frombits(0xFFF4000000000456), math.Inf(1), math.Inf(-1), -1}

// TestMaxPoolMatchesGoLoop: on both tiers, every width the kernel takes (8,
// 16, 24, and 4 at an even band count) and ones it leaves to the Go loop (2,
// 6, 12, and 4 at an odd band count), with every placement of the specials
// over a window's four slots: each band of a 2-wide, 2-row image cycles
// through all 9^4 of them.
func TestMaxPoolMatchesGoLoop(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		r := parityRNG(72)
		for _, width := range []int{2, 4, 6, 8, 12, 16, 24} {
			for _, rows := range []int{2, 4, 6, 16, 32} {
				src := make([]float64, width*rows)
				for round := 0; round < 3; round++ {
					fillParity(&r, src)
					for i := range src {
						if round > 0 && r.next() > 0 {
							src[i] = poolSpecials[int((r.next()+1)*4.5)%len(poolSpecials)]
						}
					}
					poolTwin(t, src, width)
				}
			}
		}
		// Every window of every slot assignment, at the widths the kernel
		// takes: the windows of one 8-wide band, then a 4-wide image.
		var all []float64
		ns := len(poolSpecials)
		for code := 0; code < ns*ns*ns*ns; code++ {
			c := code
			for slot := 0; slot < 4; slot++ {
				all = append(all, poolSpecials[c%ns])
				c /= ns
			}
		}
		for len(all)%32 != 0 { // whole steps of both kernel forms: zero windows
			all = append(all, 0)
		}
		for _, width := range []int{4, 8} {
			src := make([]float64, len(all))
			for wdw := 0; wdw < len(all)/4; wdw++ { // window wdw's slots at its place in the image
				band, col := wdw/(width/2), wdw%(width/2)
				at := band*2*width + 2*col
				src[at], src[at+1], src[at+width], src[at+width+1] = all[4*wdw], all[4*wdw+1], all[4*wdw+2], all[4*wdw+3]
			}
			poolTwin(t, src, width)
		}
	})
}

// FuzzMaxPoolTwin runs poolTwin on both tiers over widths 2-32 (even) and
// 1-16 bands, the image cycling through the fuzzer's raw float64 words.
func FuzzMaxPoolTwin(f *testing.F) {
	var words []byte
	for _, v := range poolSpecials {
		words = binary.LittleEndian.AppendUint64(words, math.Float64bits(v))
	}
	f.Add(uint8(3), uint8(8), words)
	f.Add(uint8(1), uint8(16), words[:40])
	f.Add(uint8(7), uint8(3), words[8:])
	f.Fuzz(func(t *testing.T, w, bands uint8, raw []byte) {
		if len(raw) < 8 {
			t.Skip("no float64 word")
		}
		width := 2 * (int(w%16) + 1)
		src := make([]float64, width*2*(int(bands%16)+1))
		for i := range src {
			j := 8 * (i % (len(raw) / 8))
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[j:]))
		}
		eachTier(t, func(t *testing.T) { poolTwin(t, src, width) })
	})
}
