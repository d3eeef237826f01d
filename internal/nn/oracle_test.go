package nn

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"testing"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Layer-level bit-identity oracles: the conv, ReLU and max-pool layers this
// package shipped before the transpose-free rewrite, kept here on the naive
// tensor kernels, and compared bit for bit with the layers in layers.go.
// The cluster/experiments goldens pin the same property end to end; these
// say WHICH layer moved when one of them fails.

// convRef is the transposing per-sample path: Im2Col -> GemmTB into a P x F
// product -> strided copy into the channel-major row, and back through a
// strided copy -> GemmTA / Gemm -> Col2Im.
type convRef struct {
	shape   tensor.ConvShape
	filters int
	patches []*tensor.Matrix
}

func (c *convRef) forward(params []float64, in *tensor.Matrix) *tensor.Matrix {
	p, pl := c.shape.OutHeight()*c.shape.OutWidth(), c.shape.PatchLen()
	w := &tensor.Matrix{Rows: c.filters, Cols: pl, Data: params[:c.filters*pl]}
	bias := params[c.filters*pl:]
	out := tensor.NewMatrix(in.Rows, c.filters*p)
	c.patches = c.patches[:0]
	prod := tensor.NewMatrix(p, c.filters)
	for i := 0; i < in.Rows; i++ {
		lowered := tensor.NewMatrix(p, pl)
		tensor.Im2Col(c.shape, in.Row(i), lowered)
		c.patches = append(c.patches, lowered)
		tensor.GemmTBNaive(1, lowered, w, 0, prod)
		dst := out.Row(i)
		for f := 0; f < c.filters; f++ {
			b := bias[f]
			for pos := 0; pos < p; pos++ {
				dst[f*p+pos] = prod.At(pos, f) + b
			}
		}
	}
	return out
}

func (c *convRef) backward(params []float64, dOut *tensor.Matrix, dParams []float64) *tensor.Matrix {
	p, pl := c.shape.OutHeight()*c.shape.OutWidth(), c.shape.PatchLen()
	w := &tensor.Matrix{Rows: c.filters, Cols: pl, Data: params[:c.filters*pl]}
	dW := &tensor.Matrix{Rows: c.filters, Cols: pl, Data: dParams[:c.filters*pl]}
	dB := dParams[c.filters*pl:]
	dIn := tensor.NewMatrix(dOut.Rows, c.shape.Channels*c.shape.Height*c.shape.Width)
	dProd := tensor.NewMatrix(p, c.filters)
	dPatches := tensor.NewMatrix(p, pl)
	for i := 0; i < dOut.Rows; i++ {
		src := dOut.Row(i)
		for f := 0; f < c.filters; f++ {
			for pos := 0; pos < p; pos++ {
				g := src[f*p+pos]
				dProd.Row(pos)[f] = g
				dB[f] += g
			}
		}
		tensor.GemmTANaive(1, dProd, c.patches[i], 1, dW)
		tensor.GemmNaive(1, dProd, w, 0, dPatches)
		tensor.Col2Im(c.shape, dPatches, dIn.Row(i))
	}
	return dIn
}

// reluLaden fills m the way a ReLU (and, at zeroFrac 0.875, a ReLU followed
// by a 2x2 max-pool backward) leaves an operand: a zeroFrac share of exact
// zeros, one in eight of them -0, the rest signed values.
func reluLaden(r *rng.Rand, m *tensor.Matrix, zeroFrac float64) *tensor.Matrix {
	for i := range m.Data {
		switch u := r.Float64(); {
		case u < zeroFrac/8:
			m.Data[i] = math.Copysign(0, -1)
		case u < zeroFrac:
			m.Data[i] = 0
		default:
			m.Data[i] = r.NormFloat64()
		}
	}
	return m
}

func mustBitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%x), want %v (%x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestConv2DMatchesTransposingReference(t *testing.T) {
	shapes := []struct {
		name                                            string
		channels, height, width, kernel, stride, pad, f int
	}{
		{"vgg1 1x8x8 k3 p1", 1, 8, 8, 3, 1, 1, 8},
		{"vgg2 8x4x4 k3 p1", 8, 4, 4, 3, 1, 1, 16},
		{"stride 2", 3, 7, 7, 3, 2, 1, 5},
		{"pad 0", 2, 5, 6, 3, 1, 0, 3},
		{"one filter, 1x1 kernel", 2, 3, 3, 1, 1, 0, 1},
	}
	r := rng.New(41)
	for _, sh := range shapes {
		layer := NewConv2D(sh.channels, sh.height, sh.width, sh.kernel, sh.stride, sh.pad, sh.f)
		ref := &convRef{shape: layer.shape, filters: sh.f}
		params := make([]float64, layer.ParamLen())
		layer.Init(params, r.Split())
		for i := len(params) - sh.f; i < len(params); i++ {
			params[i] = r.NormFloat64() // Init leaves biases at zero
		}
		// Batch sizes shrink as well as grow: the arena is reused at a
		// smaller size after a larger one.
		for _, batch := range []int{3, 1, 5} {
			for _, zeroFrac := range []float64{0, 0.5} {
				in := reluLaden(r, tensor.NewMatrix(batch, layer.InDim()), zeroFrac)
				dOut := reluLaden(r, tensor.NewMatrix(batch, layer.OutDim()), 0.875)
				dParams := make([]float64, len(params))
				for i := range dParams {
					dParams[i] = r.NormFloat64() // Backward accumulates
				}
				dParams[0], dParams[len(dParams)-1] = math.Copysign(0, -1), math.Copysign(0, -1)
				dParamsRef := append([]float64(nil), dParams...)

				what := sh.name
				mustBitsEqual(t, what+" Forward", layer.Forward(params, in).Data, ref.forward(params, in).Data)
				dIn := layer.Backward(params, dOut, dParams)
				mustBitsEqual(t, what+" Backward dIn", dIn.Data, ref.backward(params, dOut, dParamsRef).Data)
				mustBitsEqual(t, what+" Backward dParams", dParams, dParamsRef)
			}
		}
	}
}

// reluRef is the ReLU this package shipped: a compare and a branch per
// element. It clamps NaN to 0 (v > 0 is false); the layer now propagates
// NaN, so the comparison below is over non-NaN inputs, and the NaN rows of
// the table are pinned separately.
func reluRef(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

func TestReLUTable(t *testing.T) {
	negNaN := math.Float64frombits(0xFFF8000000000123)
	posNaN := math.Float64frombits(0x7FF8000000000456)
	cases := []struct {
		in, out, grad float64 // grad: what Backward makes of an upstream gradient of -2.5
	}{
		{0, 0, 0},
		{math.Copysign(0, -1), 0, 0},
		{5e-324, 5e-324, -2.5},
		{-5e-324, 0, 0},
		{2.2e-308, 2.2e-308, -2.5},
		{-2.2e-308, 0, 0},
		{1.5, 1.5, -2.5},
		{-1.5, 0, 0},
		{math.MaxFloat64, math.MaxFloat64, -2.5},
		{math.Inf(1), math.Inf(1), -2.5},
		{math.Inf(-1), 0, 0},
		{posNaN, posNaN, -2.5},
		{negNaN, negNaN, -2.5},
	}
	in := tensor.NewMatrix(1, len(cases))
	dOut := tensor.NewMatrix(1, len(cases))
	for i, c := range cases {
		in.Data[i], dOut.Data[i] = c.in, -2.5
	}
	l := NewReLU(len(cases))
	out := l.Forward(nil, in)
	dIn := l.Backward(nil, dOut, nil)
	for i, c := range cases {
		// Bit comparison: +0 not -0 where clamped, NaN sign and payload kept.
		if math.Float64bits(out.Data[i]) != math.Float64bits(c.out) {
			t.Errorf("Forward(%v) = %v (%x), want %v (%x)", c.in,
				out.Data[i], math.Float64bits(out.Data[i]), c.out, math.Float64bits(c.out))
		}
		if !math.IsNaN(c.in) && math.Float64bits(out.Data[i]) != math.Float64bits(reluRef(c.in)) {
			t.Errorf("Forward(%v) = %v, the branching loop gave %v", c.in, out.Data[i], reluRef(c.in))
		}
		if math.Float64bits(dIn.Data[i]) != math.Float64bits(c.grad) {
			t.Errorf("Backward at %v = %v (%x), want %v", c.in, dIn.Data[i], math.Float64bits(dIn.Data[i]), c.grad)
		}
	}
}

func TestReLUMatchesBranchingLoop(t *testing.T) {
	r := rng.New(42)
	l := NewReLU(37)
	for _, batch := range []int{4, 1, 7} {
		in := reluLaden(r, tensor.NewMatrix(batch, 37), 0.3)
		dOut := reluLaden(r, tensor.NewMatrix(batch, 37), 0.3)
		wantOut, wantIn := make([]float64, len(in.Data)), make([]float64, len(in.Data))
		for i, v := range in.Data {
			wantOut[i] = reluRef(v)
			if wantOut[i] > 0 {
				wantIn[i] = dOut.Data[i]
			}
		}
		mustBitsEqual(t, "ReLU Forward", l.Forward(nil, in).Data, wantOut)
		mustBitsEqual(t, "ReLU Backward", l.Backward(nil, dOut, nil).Data, wantIn)
	}
}

// maxPoolRef is the pooling loop this package shipped: the window's first
// element, then the other three in row-major order, each taking over only
// when strictly greater.
func maxPoolRef(channels, height, width int, src []float64) (out []float64, argmax []int) {
	oh, ow := height/2, width/2
	for ch := 0; ch < channels; ch++ {
		base := ch * height * width
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := base + (2*oy)*width + 2*ox
				best := src[bestIdx]
				for _, d := range [3]int{1, width, width + 1} {
					if idx := base + (2*oy)*width + 2*ox + d; src[idx] > best {
						best, bestIdx = src[idx], idx
					}
				}
				out = append(out, best)
				argmax = append(argmax, bestIdx)
			}
		}
	}
	return out, argmax
}

func TestMaxPoolMatchesBranchingLoop(t *testing.T) {
	r := rng.New(43)
	for _, sh := range []struct{ c, h, w int }{{8, 8, 8}, {16, 4, 4}, {3, 2, 6}, {1, 6, 2}} {
		l := NewMaxPool2x2(sh.c, sh.h, sh.w)
		for _, batch := range []int{3, 1, 5} {
			// Post-ReLU planes: many exact ties at zero, of both signs.
			in := reluLaden(r, tensor.NewMatrix(batch, l.InDim()), 0.5)
			// And what a diverged run feeds it: NaN and infinities, first
			// and later in a window.
			in.Data[0], in.Data[3] = math.NaN(), math.NaN()
			in.Data[l.InDim()-1], in.Data[l.InDim()-2] = math.Inf(1), math.Inf(-1)
			dOut := reluLaden(r, tensor.NewMatrix(batch, l.OutDim()), 0.25)
			out := l.Forward(nil, in)
			dIn := l.Backward(nil, dOut, nil)
			for i := 0; i < batch; i++ {
				wantOut, argmax := maxPoolRef(sh.c, sh.h, sh.w, in.Row(i))
				wantIn := make([]float64, l.InDim())
				for o, idx := range argmax {
					wantIn[idx] += dOut.Row(i)[o]
				}
				for o := range wantOut { // NaN maxima: compare as bits
					if math.Float64bits(out.Row(i)[o]) != math.Float64bits(wantOut[o]) {
						t.Fatalf("%+v batch %d row %d: out[%d] = %v, want %v", sh, batch, i, o, out.Row(i)[o], wantOut[o])
					}
				}
				mustBitsEqual(t, "MaxPool Backward", dIn.Row(i), wantIn)
			}
		}
	}
}

// steadyStateAllocs warms step up (arenas grow to size on the first call)
// and returns its allocations per call afterwards.
func steadyStateAllocs(step func()) float64 {
	step()
	return testing.AllocsPerRun(20, step)
}

func TestLayersSteadyStateAllocFree(t *testing.T) {
	r := rng.New(44)
	conv := NewConv2D(8, 4, 4, 3, 1, 1, 16)
	layers := map[string]Layer{
		"Conv2D":     conv,
		"ReLU":       NewReLU(conv.InDim()),
		"MaxPool2x2": NewMaxPool2x2(8, 4, 4),
	}
	for name, l := range layers {
		params, dParams := make([]float64, l.ParamLen()), make([]float64, l.ParamLen())
		l.Init(params, r.Split())
		in := reluLaden(r, tensor.NewMatrix(16, l.InDim()), 0.5)
		dOut := reluLaden(r, tensor.NewMatrix(16, l.OutDim()), 0.5)
		if n := steadyStateAllocs(func() {
			l.Forward(params, in)
			l.Backward(params, dOut, dParams)
		}); n != 0 {
			t.Errorf("%s Forward+Backward: %v allocs per call in steady state, want 0", name, n)
		}
	}
}

func TestLossGradSteadyStateAllocFree(t *testing.T) {
	shape := data.ImageShape{Channels: 1, Height: 8, Width: 8}
	for name, net := range map[string]*Network{
		"VGGNano":    NewVGGNano(shape, 10),
		"ResNetNano": NewResNetNano(shape, 10),
	} {
		net.InitParams(rng.New(45))
		b := classBatch(net.InDim(), 10, 16, 46)
		grad := make([]float64, net.ParamLen())
		if n := steadyStateAllocs(func() { net.LossGrad(b, grad) }); n != 0 {
			t.Errorf("%s LossGrad: %v allocs per call in steady state, want 0", name, n)
		}
	}
}

// TestCloneSharesNoScratch: a clone is a worker's own copy, so after both
// nets have run a training step and an evaluation, no buffer either layer
// holds — forward caches, patches, padded images, arenas, the masked G a
// folded ReLU's lowered backward keeps — shares a backing array with its
// twin's (two workers' steps would race through it). The third net's first
// conv lowers on either tier (stride 2), so that scratch is among them.
func TestCloneSharesNoScratch(t *testing.T) {
	shape := data.ImageShape{Channels: 1, Height: 8, Width: 8}
	seen := map[string]bool{}
	for name, net := range map[string]*Network{
		"VGGNano":    NewVGGNano(shape, 10),
		"ResNetNano": NewResNetNano(shape, 10),
		"lowered": NewNetwork(SoftmaxCrossEntropy{}, 10,
			NewConv2D(1, 8, 8, 3, 2, 1, 4), NewReLU(64), NewConv2D(4, 4, 4, 3, 1, 1, 4), NewReLU(64), NewDense(64, 10)),
	} {
		net.InitParams(rng.New(47))
		clone := net.Clone()
		for i, n := range []*Network{net, clone} {
			b := classBatch(n.InDim(), 10, 16, 48+uint64(i)) // each its own batch: layer 0 keeps it
			n.LossGrad(b, make([]float64, n.ParamLen()))
			n.Loss(classBatch(n.InDim(), 10, 20, 50))
		}
		var walk func(orig, cloned []Layer)
		walk = func(orig, cloned []Layer) {
			for li, l := range orig {
				if r, ok := l.(*Residual); ok {
					walk(r.inner, cloned[li].(*Residual).inner)
				}
				theirs := buffers(cloned[li])
				for field, buf := range buffers(l) {
					seen[field] = seen[field] || buf.Len() > 0
					if p := buf.UnsafePointer(); p != nil && theirs[field].UnsafePointer() == p {
						t.Errorf("%s layer %d %s: the clone shares its backing array", name, li, field)
					}
				}
			}
		}
		walk(net.layers, clone.layers)
	}
	if !seen["Conv2D.grad.masked"] {
		t.Errorf("no network held a masked G: the check does not cover it (fields seen: %v)", seen)
	}
}

// Evaluation oracles: Network.Loss and Network.Accuracy as they were before
// chunking — the forward over the whole batch, then the loss's Eval or the
// argmax loop — and LossGrad as it was before layer 0's input gradient was
// skipped. The chunked evaluation and the elision must agree with them bit
// for bit.

func lossRef(n *Network, b data.Batch) float64 {
	return n.loss.Eval(n.Forward(b.X), b, nil)
}

// accuracyRef is the old argmax loop with the one intended difference: a row
// holding a NaN logit, which the bare loop settles on class 0 for, is not
// counted (TestAccuracyNaNLogits pins that rule on its own).
func accuracyRef(n *Network, b data.Batch) float64 {
	out := n.Forward(b.X)
	correct := 0
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		best := 0
		for j := 1; j < len(row); j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		hasNaN := false
		for _, v := range row {
			hasNaN = hasNaN || math.IsNaN(v)
		}
		if best == b.Y[i] && !hasNaN {
			correct++
		}
	}
	return float64(correct) / float64(out.Rows)
}

func lossGradRef(n *Network, b data.Batch, grad []float64) float64 {
	tensor.Zero(grad)
	out := n.Forward(b.X)
	dOut := tensor.NewMatrix(out.Rows, out.Cols)
	loss := n.loss.Eval(out, b, dOut)
	cur := dOut
	for i := len(n.layers) - 1; i >= 0; i-- {
		cur = n.layers[i].Backward(n.layerParams(n.params, i),
			cur, grad[n.offsets[i]:n.offsets[i]+n.layers[i].ParamLen()])
	}
	return loss
}

// zooModel is one architecture of zoo.go, initialized, with batches of its
// own kind.
type zooModel struct {
	name  string
	net   *Network
	batch func(rows int, seed uint64) data.Batch
}

func zooModels() []zooModel {
	const dim, classes = 12, 5
	shape := data.ImageShape{Channels: 1, Height: 8, Width: 8}
	class := func(dim, classes int) func(int, uint64) data.Batch {
		return func(rows int, seed uint64) data.Batch { return classBatch(dim, classes, rows, seed) }
	}
	zoo := []zooModel{
		{"LinearRegression", NewLinearRegression(dim),
			func(rows int, seed uint64) data.Batch { return regBatch(dim, rows, seed) }},
		{"LogisticRegression", NewLogisticRegression(dim, classes), class(dim, classes)},
		{"MLP", NewMLP(dim, []int{16, 8}, classes), class(dim, classes)},
		{"VGGNano", NewVGGNano(shape, 10), class(shape.Len(), 10)},
		{"ResNetNano", NewResNetNano(shape, 10), class(shape.Len(), 10)},
	}
	for i, m := range zoo {
		m.net.InitParams(rng.New(60 + uint64(i)))
	}
	return zoo
}

func TestEvaluationMatchesWholeBatchTrainingForward(t *testing.T) {
	for _, m := range zooModels() {
		finite := append([]float64(nil), m.net.Params()...)
		last := len(finite) - 1
		for _, plant := range []struct {
			name string
			at   int
			v    float64
		}{
			{"finite", 0, finite[0]},
			{"NaN in the first layer", 0, math.NaN()},
			{"Inf in the last bias", last, math.Inf(1)},
			{"-Inf mid-vector", last / 2, math.Inf(-1)},
		} {
			m.net.SetParams(finite)
			m.net.Params()[plant.at] = plant.v
			oracle := m.net.Clone()
			for _, rows := range []int{1, 15, 16, 17, 384, 512} {
				b := m.batch(rows, uint64(rows))
				what := m.name + ", " + plant.name
				if got, want := m.net.Loss(b), lossRef(oracle, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s, %d rows: Loss %v (%#x), whole-batch oracle %v (%#x)",
						what, rows, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if m.net.classes == 0 {
					continue
				}
				if got, want := m.net.Accuracy(b), accuracyRef(oracle, b); got != want {
					t.Errorf("%s, %d rows: Accuracy %v, whole-batch oracle %v", what, rows, got, want)
				}
			}
		}
	}
}

func TestLossGradMatchesBackwardOnEveryLayer(t *testing.T) {
	residualFirst := NewNetwork(SoftmaxCrossEntropy{}, 4,
		NewResidual(NewDense(6, 6), NewReLU(6), NewDense(6, 6)), NewDense(6, 4))
	residualFirst.InitParams(rng.New(70))
	models := append(zooModels(), zooModel{"Residual first", residualFirst,
		func(rows int, seed uint64) data.Batch { return classBatch(6, 4, rows, seed) }})
	for _, m := range models {
		// A Residual first layer takes the full Backward; every other first
		// layer here can skip its input gradient.
		_, elides := m.net.layers[0].(paramGrader)
		if _, isResidual := m.net.layers[0].(*Residual); elides == isResidual {
			t.Fatalf("%s: input-gradient elision on = %v", m.name, elides)
		}
		oracle := m.net.Clone()
		got, want := make([]float64, m.net.ParamLen()), make([]float64, m.net.ParamLen())
		for _, rows := range []int{1, 16} {
			b := m.batch(rows, 71)
			l, lRef := m.net.LossGrad(b, got), lossGradRef(oracle, b, want)
			if math.Float64bits(l) != math.Float64bits(lRef) {
				t.Errorf("%s, %d rows: loss %v, reference %v", m.name, rows, l, lRef)
			}
			mustBitsEqual(t, m.name+" gradient", got, want)
		}
	}
}

// softmaxRef is SoftmaxCrossEntropy's per-row loop written out, as this
// package first shipped it: two math.Exp calls per logit, one math.Log per
// row.
func softmaxRef(total float64, out *tensor.Matrix, b data.Batch, dOut *tensor.Matrix, invB float64) float64 {
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - mx)
		}
		logZ := mx + math.Log(sum)
		total += logZ - row[b.Y[i]]
		if dOut != nil {
			d := dOut.Row(i)
			for j, v := range row {
				d[j] = math.Exp(v-logZ) * invB
			}
			d[b.Y[i]] -= invB
		}
	}
	return total
}

// TestSoftmaxCrossEntropyMatchesScalarLoop holds the loss to softmaxRef bit
// for bit — the running total, the loss and every gradient element — at
// class counts around the four-row groups' columns and the old tile (one row
// per tile piece past 256) and row counts around a group of four (the 1-3
// rows a remainder group has) and the old block, over logits a trained
// model, a diverging one (spreads past exp's -708) and a diverged one (NaN,
// ±Inf) produce. Regime 3 plants two more NaN payloads beside math.NaN's:
// where two NaNs meet in one of the Go adds, which payload survives is the
// compiler's operand order (two payloads already came out of the tiled loop
// and this one differently), so there a value the scalar loop makes NaN must
// be NaN, of any payload, and every other value stays bit for bit.
func TestSoftmaxCrossEntropyMatchesScalarLoop(t *testing.T) {
	r := rng.New(80)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 800, -800, 0, math.Copysign(0, -1)}
	payloads := append([]float64{math.Float64frombits(0x7FF8000000000abc), math.Float64frombits(0xFFF800000000def1)}, specials...)
	for _, cols := range []int{1, 2, 3, 4, 5, 8, 9, 10, 16, 17, 85, 255, 256, 257, 600} {
		for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 16, 25, 26, 33, 64, 100} {
			for regime := 0; regime < 4; regime++ {
				out := tensor.NewMatrix(rows, cols)
				b := data.Batch{Y: make([]int, rows)}
				for i := range out.Data {
					switch v := r.NormFloat64() * 3; {
					case regime == 1 && r.Intn(8) == 0:
						out.Data[i] = v * 400
					case regime == 2 && r.Intn(16) == 0:
						out.Data[i] = specials[r.Intn(len(specials))]
					case regime == 3 && r.Intn(16) == 0:
						out.Data[i] = payloads[r.Intn(len(payloads))]
					default:
						out.Data[i] = v
					}
				}
				for i := range b.Y {
					b.Y[i] = r.Intn(cols)
				}
				same := mustBitsEqual
				if regime == 3 {
					same = mustEqualAnyNaN
				}
				invB := 1 / float64(max(rows, 1))
				d, dRef := tensor.NewMatrix(rows, cols), tensor.NewMatrix(rows, cols)
				what := fmt.Sprintf("%dx%d regime %d", rows, cols, regime)
				got := SoftmaxCrossEntropy{}.addRows(0.25, out, b, d, invB)
				same(t, what+" total", []float64{got}, []float64{softmaxRef(0.25, out, b, dRef, invB)})
				same(t, what+" gradient", d.Data, dRef.Data)
				got = SoftmaxCrossEntropy{}.AddRows(-1, out, b)
				same(t, what+" AddRows", []float64{got}, []float64{softmaxRef(-1, out, b, nil, 0)})
			}
		}
	}
}

// TestSoftmaxCrossEntropyUnderGODEBUG re-runs the scalar-loop oracle test in
// a child process under GODEBUG=cpu.fma=off and under cpu.avx=off, where
// math.Exp takes its unfused path on an FMA host and the loss's exps must
// follow it.
func TestSoftmaxCrossEntropyUnderGODEBUG(t *testing.T) {
	if os.Getenv("GODEBUG") != "" {
		t.Skip("GODEBUG is set: this is a child, or the caller chose its own settings")
	}
	for _, setting := range []string{"cpu.fma=off", "cpu.avx=off"} {
		cmd := exec.Command(os.Args[0], "-test.count=1", "-test.run=^TestSoftmaxCrossEntropyMatchesScalarLoop$")
		cmd.Env = append(os.Environ(), "GODEBUG="+setting)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("GODEBUG=%s: %v\n%s", setting, err, out)
		}
	}
}

// mustEqualAnyNaN is mustBitsEqual with every NaN of want matched by a NaN of
// any payload.
func mustEqualAnyNaN(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(want[i]) && math.IsNaN(got[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%x), want %v (%x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSoftmaxCrossEntropyLabelOutOfRange: a label past the row still panics,
// as the scalar loop's row[b.Y[i]] did, instead of reading the next row.
func TestSoftmaxCrossEntropyLabelOutOfRange(t *testing.T) {
	for _, y := range []int{3, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("label %d of 3 classes: no panic", y)
				}
			}()
			out := tensor.NewMatrix(2, 3)
			SoftmaxCrossEntropy{}.AddRows(0, out, data.Batch{Y: []int{0, y}})
		}()
	}
}
