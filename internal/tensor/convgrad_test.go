package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// convGradSamples is how many samples one convGradTwin pass runs through
// one Load, so that state one sample leaves in the scratch (lists, ring,
// the padded image) meets the next.
const convGradSamples = 2

// convGradTwin holds ConvGrad, on whichever tier runs, to the lowered path
// written out with the canonical kernels — Lower + GemmNaive for dW,
// GemmTANaive + Raise for dIn — bit for bit over convGradSamples samples of
// one pass. dW starts from dW0 and sits in one slice with a planted dB after
// it and sentinels past both, as a layer's gradient does; pad comes in with
// a zero border and a NaN interior, dIn and the patches matrix NaN-filled,
// and every scratch slice of the ConvGrad gets sentinels past its end. Where
// a product or an add of an element meets two NaNs, the reference only
// demands a NaN (the Go loops leave the payload to the compiler); on the
// direct kernels, whose operand order is fixed, the element must be
// convGradModel's exactly. Where outs holds the samples' outputs, Sample
// masks by them (a folded ReLU) and the reference and the model take G as
// reluGradGo leaves it; outs nil passes no mask.
func convGradTwin(t *testing.T, s ConvShape, nf int, wantDIn bool, weights, dW0, dB0 []float64,
	imgs, grads, outs [convGradSamples][]float64) {
	t.Helper()
	p, l := s.OutHeight()*s.OutWidth(), s.PatchLen()
	w := &Matrix{Rows: nf, Cols: l, Data: weights}
	nIn := s.Channels * s.Height * s.Width
	given := grads
	if outs[0] != nil {
		for i := range grads {
			grads[i] = make([]float64, len(given[i]))
			reluGradGo(grads[i], given[i], outs[i])
		}
	}

	wantDW := append([]float64(nil), dW0...)
	var refDIn [convGradSamples][]float64
	for i := range imgs {
		x := NewMatrix(p, l)
		Lower(s, imgs[i], make([]float64, s.PadLen()), x)
		g := &Matrix{Rows: nf, Cols: p, Data: grads[i]}
		GemmNaive(1, g, x, 1, &Matrix{Rows: nf, Cols: l, Data: wantDW})
		if wantDIn {
			dx := NewMatrix(p, l)
			GemmTANaive(1, g, w, 0, dx)
			refDIn[i] = make([]float64, nIn)
			Raise(s, dx, make([]float64, s.PadLen()), refDIn[i])
		}
	}
	modelDW, modelDIn, metDW, metDIn := convGradModel(s, w, dW0, imgs, grads)
	// dB: each row of each sample's G added onto its element left to right,
	// every coefficient, zeros too; the model as convGradModel's adds.
	wantDB, modelDB, metDB := append([]float64(nil), dB0...), append([]float64(nil), dB0...), make([]bool, nf)
	for i := range grads {
		for f := range wantDB {
			for _, v := range grads[i][f*p : (f+1)*p] {
				wantDB[f] += v
				if math.IsNaN(modelDB[f]) && math.IsNaN(v) {
					metDB[f], modelDB[f] = true, math.Float64frombits(math.Float64bits(modelDB[f])|1<<51)
				} else {
					modelDB[f] += v
				}
			}
		}
	}

	var cg ConvGrad
	cg.Load(s, w, wantDIn)
	intact := tailScratch(&cg)
	params := filled(nf*l+nf+5, valSentinel)
	copy(params, dW0)
	copy(params[nf*l:], dB0)
	dW := &Matrix{Rows: nf, Cols: l, Data: params[:nf*l]}
	padWhole := filled(s.PadLen()+5, valSentinel)
	pad := padWhole[:s.PadLen()]
	Zero(pad)
	s.frame(filled(nIn, math.NaN()), pad)
	var x *Matrix
	if !s.Direct() {
		x = NewMatrix(p, l)
		Fill(x.Data, math.NaN())
	}
	var kept [2][convGradSamples][]float64 // copies: Sample reads grad and out, never writes them
	for i := range imgs {
		kept[0][i], kept[1][i] = append([]float64(nil), given[i]...), append([]float64(nil), outs[i]...)
	}
	for i := range imgs {
		dInWhole := filled(nIn+5, valSentinel)
		var dIn []float64
		if wantDIn {
			dIn = dInWhole[:nIn]
			Fill(dIn, math.NaN())
		}
		cg.Sample(given[i], outs[i], imgs[i], pad, x, dW, params[nf*l:nf*l+nf], dIn)
		if wantDIn {
			checkConvGrad(t, s, nf, "dIn", dIn, refDIn[i], modelDIn[i], metDIn[i], s.directDX())
		}
		intactPast(t, "ConvGrad's dIn", dInWhole, len(dIn), valSentinel)
	}
	for i := range imgs {
		for k, vs := range [][]float64{given[i], outs[i]} {
			if j, ok := bitsEqual(vs, kept[k][i]); !ok {
				t.Fatalf("ConvGrad %+v: Sample wrote sample %d's %s at %d", s, i, []string{"gradient", "output"}[k], j)
			}
		}
	}
	checkConvGrad(t, s, nf, "dW", dW.Data, wantDW, modelDW, metDW, s.Direct())
	// The kernel sums four rows at a time; the last F % 4 are a Go loop's.
	lanes := nf &^ 3
	checkConvGrad(t, s, nf, "dB", params[nf*l:nf*l+lanes], wantDB[:lanes], modelDB, metDB, s.Direct())
	checkConvGrad(t, s, nf, "dB's last rows", params[nf*l+lanes:nf*l+nf], wantDB[lanes:], modelDB[lanes:], metDB[lanes:], false)
	intactPast(t, "ConvGrad's dW and dB", params, nf*l+nf, valSentinel)
	intactPast(t, "ConvGrad's pad", padWhole, len(pad), valSentinel)
	intact(t)
}

// checkConvGrad compares got with the lowered reference want and, where the
// kernel ran, with the model, as convGradTwin says.
func checkConvGrad(t *testing.T, s ConvShape, nf int, what string, got, want, model []float64, met []bool, kernel bool) {
	t.Helper()
	for i := range want {
		gb, wb, mb := math.Float64bits(got[i]), math.Float64bits(want[i]), math.Float64bits(model[i])
		switch {
		case !met[i] && mb != wb:
			t.Fatalf("ConvGrad %+v F=%d: the model says %s[%d] = %#x, the reference %#x: the test's model is wrong",
				s, nf, what, i, mb, wb)
		case gb != wb && (!met[i] || !math.IsNaN(got[i]) || !math.IsNaN(want[i])):
			t.Fatalf("ConvGrad %+v F=%d (%s): %s[%d] = %#x, the lowered path %#x",
				s, nf, Kernels(), what, i, gb, wb)
		case kernel && gb != mb:
			t.Fatalf("ConvGrad %+v F=%d: %s[%d] = %#x where two NaNs met, the kernels' operand order gives %#x",
				s, nf, what, i, gb, mb)
		}
	}
}

// tailScratch moves every scratch slice of cg onto an array with sentinels
// past its end and returns the check that they are intact.
func tailScratch(cg *ConvGrad) func(t *testing.T) {
	var checks []func(t *testing.T)
	floats := func(what string, s *[]float64) {
		if *s == nil {
			return
		}
		whole := filled(len(*s)+5, valSentinel)
		copy(whole, *s)
		*s = whole[:len(*s)]
		checks = append(checks, func(t *testing.T) { intactPast(t, "ConvGrad's "+what, whole, len(*s), valSentinel) })
	}
	ints := func(what string, s *[]int) {
		if *s == nil {
			return
		}
		whole := filled(len(*s)+5, idxSentinel)
		copy(whole, *s)
		*s = whole[:len(*s)]
		checks = append(checks, func(t *testing.T) { intactPast(t, "ConvGrad's "+what, whole, len(*s), idxSentinel) })
	}
	floats("wt", &cg.wt)
	floats("val", &cg.val)
	floats("ring", &cg.ring)
	floats("dPad", &cg.dPad)
	floats("masked", &cg.masked)
	ints("table", &cg.table)
	ints("off", &cg.off)
	ints("cnt", &cg.cnt)
	if cg.dx != nil {
		floats("dPatches", &cg.dx.Data)
	}
	return func(t *testing.T) {
		t.Helper()
		for _, c := range checks {
			c(t)
		}
	}
}

// convGradModel is the backward with every NaN's fate spelled out, as
// convolveModel is the forward's: dW from dW0, each sample adding pad value
// times coefficient over the positions in ascending order; a D row from +0
// adding filter value times coefficient over the filters in ascending
// order; a pixel from +0 adding its D elements in Col2Im's order. A
// coefficient that is ±0 is skipped; an operation that meets two NaNs
// returns its FIRST operand's, quieted (the x86 rule), and marks the
// element.
func convGradModel(s ConvShape, w *Matrix, dW0 []float64, imgs, grads [convGradSamples][]float64) (
	dW []float64, dIn [convGradSamples][]float64, metDW []bool, metDIn [convGradSamples][]bool) {
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
	nf, l, p := w.Rows, w.Cols, s.OutHeight()*s.OutWidth()
	dW, metDW = append([]float64(nil), dW0...), make([]bool, len(dW0))
	for i := range imgs {
		x := NewMatrix(p, l)
		Im2Col(s, imgs[i], x)
		for f := 0; f < nf; f++ {
			for k := 0; k < l; k++ {
				for pos := 0; pos < p; pos++ {
					if v := grads[i][f*p+pos]; v != 0 {
						dW[f*l+k] = first(dW[f*l+k], first(x.At(pos, k), v, mul, &metDW[f*l+k]), add, &metDW[f*l+k])
					}
				}
			}
		}
		d, metD := NewMatrix(p, l), make([]bool, p*l)
		for pos := 0; pos < p; pos++ {
			for k := 0; k < l; k++ {
				for f := 0; f < nf; f++ {
					if v := grads[i][f*p+pos]; v != 0 {
						d.Data[pos*l+k] = first(d.Data[pos*l+k], first(w.At(f, k), v, mul, &metD[pos*l+k]), add, &metD[pos*l+k])
					}
				}
			}
		}
		dIn[i], metDIn[i] = make([]float64, len(imgs[i])), make([]bool, len(imgs[i]))
		outH, outW, kk := s.OutHeight(), s.OutWidth(), s.Kernel
		for oy := 0; oy < outH; oy++ {
			kyLo, kyHi, y0 := s.kernelRange(oy, s.Height)
			for ox := 0; ox < outW; ox++ {
				kxLo, kxHi, x0 := s.kernelRange(ox, s.Width)
				pos := oy*outW + ox
				for c := 0; c < s.Channels; c++ {
					for ky := kyLo; ky < kyHi; ky++ {
						for kx := kxLo; kx < kxHi; kx++ {
							to, k := (c*s.Height+y0+ky)*s.Width+x0+kx, (c*kk+ky)*kk+kx
							metDIn[i][to] = metDIn[i][to] || metD[pos*l+k]
							dIn[i][to] = first(dIn[i][to], d.Data[pos*l+k], add, &metDIn[i][to])
						}
					}
				}
			}
		}
	}
	return dW, dIn, metDW, metDIn
}

// convGradCases are convCases (the zoo's convs, the kernels' edges, the
// shapes Direct declines) and the backward's own: more than 64 positions
// (several of compress's groups of positions per filter list) with a
// filter tail of three, one filter, twelve channels (three quads), image
// widths of 6 and 10 whose last four-pixel group overlaps the one before,
// width 2 (no group of four: the lowered input gradient), and three and
// six channels with the input gradient (not quads: the same).
var convGradCases = append(convCases[:len(convCases):len(convCases)], []struct {
	s  ConvShape
	nf int
}{
	{ConvShape{Channels: 4, Height: 12, Width: 12, Kernel: 3, Stride: 1, Pad: 1}, 7},
	{ConvShape{Channels: 4, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 1}, 1},
	{ConvShape{Channels: 12, Height: 4, Width: 8, Kernel: 3, Stride: 1, Pad: 1}, 5},
	{ConvShape{Channels: 4, Height: 5, Width: 6, Kernel: 3, Stride: 1, Pad: 0}, 2},
	{ConvShape{Channels: 8, Height: 3, Width: 10, Kernel: 3, Stride: 1, Pad: 2}, 4},
	{ConvShape{Channels: 4, Height: 3, Width: 2, Kernel: 3, Stride: 1, Pad: 2}, 3},
	{ConvShape{Channels: 6, Height: 4, Width: 4, Kernel: 3, Stride: 1, Pad: 1}, 4},
}...)

// TestConvGradMatchesLoweredPath runs convGradCases on both tiers, with and
// without the input gradient: finite values with exact zeros of both signs
// in every operand and G three quarters zero (the trunk conv's share); then
// NaNs of distinct payload, infinities and -0 planted in G, W and the image
// (products meet 0 x Inf, NaN x NaN; sums Inf + -Inf, NaN + NaN); then every
// operand a NaN of its own payload. dW and dB start from planted values. The
// AVX2 half must take the kernels exactly where Direct and directDX say.
func TestConvGradMatchesLoweredPath(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		r := parityRNG(73)
		for _, c := range convGradCases {
			if dx := c.s.Direct() && c.s.Channels%4 == 0 && c.s.Width >= 4; c.s.directDX() != dx || dx && !useAVX2 {
				t.Fatalf("%+v: directDX() = %v on the %s tier", c.s, c.s.directDX(), Kernels())
			}
			nIn, p, l := c.s.Channels*c.s.Height*c.s.Width, c.s.OutHeight()*c.s.OutWidth(), c.s.PatchLen()
			weights, dW0, dB0 := make([]float64, c.nf*l), make([]float64, c.nf*l), make([]float64, c.nf)
			var imgs, grads [convGradSamples][]float64
			for i := range imgs {
				imgs[i], grads[i] = make([]float64, nIn), make([]float64, c.nf*p)
			}
			for plant := 0; plant < 4; plant++ {
				fillParity(&r, weights)
				fillParity(&r, dW0)
				fillParity(&r, dB0)
				for i := range imgs {
					fillParity(&r, imgs[i])
					fillParity(&r, grads[i])
					for j := range grads[i] {
						if r.next() < 0.45 {
							grads[i][j] = 0
						}
					}
					if plant > 0 {
						plantConvSpecials(imgs[i], weights, grads[i], plant+i)
					}
				}
				for _, outs := range [][convGradSamples][]float64{{}, reluOutputs(&r, grads, plant)} {
					for _, wantDIn := range []bool{false, true} {
						convGradTwin(t, c.s, c.nf, wantDIn, weights, dW0, dB0, imgs, grads, outs)
					}
				}
			}
		}
	})
}

// reluOutputs returns an output for each sample of grads as a folded ReLU
// leaves it, with what else the mask must tell apart: half of it +0, the
// rest fillParity's values (-0 among them, which the mask passes), and from
// plant 1 on NaNs, infinities and -0 planted over a stride.
func reluOutputs(r *parityRNG, grads [convGradSamples][]float64, plant int) (outs [convGradSamples][]float64) {
	for i, g := range grads {
		outs[i] = make([]float64, len(g))
		fillParity(r, outs[i])
		for j := range outs[i] {
			if r.next() < 0 {
				outs[i][j] = 0
			}
		}
		if plant > 0 {
			plantConvSpecials(outs[i], nil, nil, plant)
		}
	}
	return outs
}

// FuzzConvGradTwin runs convGradTwin on both tiers, with and without the
// input gradient and with and without a folded ReLU's mask, over C 1-12,
// H 1-9, W 1-13, K 1-5, stride 1-2, pad 0-2 and 1-9 filters (shapes without
// an output are skipped), the image, G, W, dW, dB and the outputs cycling
// through the fuzzer's raw float64 words, and a share of G and of the
// outputs zeroed by the fuzzer's mask.
func FuzzConvGradTwin(f *testing.F) {
	specials := []float64{math.Float64frombits(0x7FF8000000000123), math.Float64frombits(0xFFF4000000000456),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -2.25, 5e-324, math.MaxFloat64}
	var words []byte
	for _, v := range specials {
		words = binary.LittleEndian.AppendUint64(words, math.Float64bits(v))
	}
	f.Add(uint8(7), uint8(8), uint8(8), uint8(3), uint8(1), uint8(1), uint8(7), uint64(0x5555), words)
	f.Add(uint8(7), uint8(4), uint8(4), uint8(3), uint8(1), uint8(1), uint8(15), uint64(0xfff0f), words[8:])
	f.Add(uint8(0), uint8(8), uint8(8), uint8(3), uint8(1), uint8(1), uint8(7), uint64(0x137), words[:24])
	f.Add(uint8(3), uint8(5), uint8(6), uint8(3), uint8(1), uint8(0), uint8(4), uint64(0), words[16:56])
	f.Add(uint8(11), uint8(3), uint8(10), uint8(3), uint8(1), uint8(2), uint8(0), uint64(1<<63), words[8:32])
	f.Fuzz(func(t *testing.T, c, h, w, k, stride, pad, nf uint8, zeros uint64, raw []byte) {
		s := ConvShape{Channels: int(c%12) + 1, Height: int(h%9) + 1, Width: int(w%13) + 1,
			Kernel: int(k%5) + 1, Stride: int(stride%2) + 1, Pad: int(pad % 3)}
		if s.Height+2*s.Pad < s.Kernel || s.Width+2*s.Pad < s.Kernel {
			t.Skip("no output")
		}
		if len(raw) < 8 {
			t.Skip("no float64 word")
		}
		n := 0
		next := func() float64 {
			j := 8 * (n % (len(raw) / 8))
			n++
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[j:]))
		}
		filters := int(nf%9) + 1
		p, l := s.OutHeight()*s.OutWidth(), s.PatchLen()
		weights, dW0, dB0 := make([]float64, filters*l), make([]float64, filters*l), make([]float64, filters)
		var imgs, grads [convGradSamples][]float64
		for i := range imgs {
			imgs[i], grads[i] = make([]float64, s.Channels*s.Height*s.Width), make([]float64, filters*p)
		}
		for _, vs := range [][]float64{weights, dW0, dB0, imgs[0], imgs[1], grads[0], grads[1]} {
			for i := range vs {
				vs[i] = next()
			}
		}
		for i := range grads {
			for j := range grads[i] {
				if zeros>>((j+i)%64)&1 != 0 {
					grads[i][j] = 0
				}
			}
		}
		var outs [convGradSamples][]float64 // raw words too, a share +0 by the mask's other bits
		for i := range outs {
			outs[i] = make([]float64, len(grads[i]))
			for j := range outs[i] {
				if outs[i][j] = next(); zeros>>((j+i+32)%64)&1 != 0 {
					outs[i][j] = 0
				}
			}
		}
		eachTier(t, func(t *testing.T) {
			for _, folded := range [][convGradSamples][]float64{{}, outs} {
				for _, wantDIn := range []bool{false, true} {
					convGradTwin(t, s, filters, wantDIn, weights, dW0, dB0, imgs, grads, folded)
				}
			}
		})
	})
}
