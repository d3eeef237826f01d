package nn

import (
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Scratch arena: every layer owns the matrices it returns from Forward and
// Backward and reuses them across calls, so the training hot path performs
// no per-step allocations once buffers reach the largest batch size seen.
// The ownership rule is: one arena per layer instance, layer instances
// belong to exactly one Network, and a Network is NOT goroutine-safe — each
// simulated worker clones the network, so arenas never race. Returned
// matrices are valid until the layer's next Forward/Backward call; callers
// that need to retain results must copy them.
//
// Two passes, two sets of buffers. Forward is the TRAINING forward: it keeps
// what Backward reads (Dense and Conv2D their input, ReLU/Tanh their output,
// MaxPool2x2 every winner's index) in buffers sized by the batch.
// forwardOnly is the evaluation pass behind Network.Loss and
// Network.Accuracy: the same arithmetic into evalBuf, a buffer of its own, and
// nothing kept — it reads and writes no field the training pass owns, so an
// evaluation between a Forward and its Backward changes no gradient, and a
// network that only evaluates never allocates a backward-sized buffer.

// ensureMat returns a rows x cols matrix backed by *m's storage when its
// capacity allows, growing it otherwise. Contents are stale: callers must
// overwrite (or zero) every element before exposing the matrix.
func ensureMat(m **tensor.Matrix, rows, cols int) *tensor.Matrix {
	need := rows * cols
	if *m == nil || cap((*m).Data) < need {
		*m = tensor.NewMatrix(rows, cols)
		return *m
	}
	(*m).Rows, (*m).Cols = rows, cols
	(*m).Data = (*m).Data[:need]
	return *m
}

// Dense is a fully connected layer: out = in*W^T + b, with W stored
// row-major (out x in) followed by b (out) in the parameter slice.
type Dense struct {
	in, out int
	lastIn  *tensor.Matrix // forward cache

	outBuf, dInBuf, evalBuf *tensor.Matrix // scratch arena
}

// NewDense creates a Dense layer mapping in -> out features.
func NewDense(in, out int) *Dense {
	if in < 1 || out < 1 {
		panic("nn: Dense dims must be >= 1")
	}
	return &Dense{in: in, out: out}
}

// InDim implements Layer.
func (d *Dense) InDim() int { return d.in }

// OutDim implements Layer.
func (d *Dense) OutDim() int { return d.out }

// ParamLen implements Layer.
func (d *Dense) ParamLen() int { return d.out*d.in + d.out }

// Init uses He initialization (appropriate for the ReLU nets in the zoo);
// biases start at zero.
func (d *Dense) Init(params []float64, r *rng.Rand) {
	std := math.Sqrt(2 / float64(d.in))
	nw := d.out * d.in
	r.FillNormFloat64(params[:nw])
	for i := range params[:nw] {
		params[i] = std * params[i]
	}
	for i := nw; i < len(params); i++ {
		params[i] = 0
	}
}

func (d *Dense) weights(params []float64) *tensor.Matrix {
	return &tensor.Matrix{Rows: d.out, Cols: d.in, Data: params[:d.out*d.in]}
}

// Forward implements Layer.
func (d *Dense) Forward(params []float64, in *tensor.Matrix) *tensor.Matrix {
	d.lastIn = in
	return d.affine(params, in, &d.outBuf)
}

func (d *Dense) forwardOnly(params []float64, in *tensor.Matrix) *tensor.Matrix {
	return d.affine(params, in, &d.evalBuf)
}

// affine writes in*W^T + b into *buf.
func (d *Dense) affine(params []float64, in *tensor.Matrix, buf **tensor.Matrix) *tensor.Matrix {
	w := d.weights(params)
	bias := params[d.out*d.in:]
	out := ensureMat(buf, in.Rows, d.out)
	tensor.GemmTB(1, in, w, 0, out) // out = in * W^T (beta=0 overwrites)
	for i := 0; i < out.Rows; i++ {
		tensor.Axpy(1, bias, out.Row(i))
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(params []float64, dOut *tensor.Matrix, dParams []float64) *tensor.Matrix {
	return d.backward(params, dOut, dParams, true)
}

func (d *Dense) backwardParams(params []float64, dOut *tensor.Matrix, dParams []float64) {
	d.backward(params, dOut, dParams, false)
}

// backward accumulates dW and dB, and computes dIn only when asked to.
func (d *Dense) backward(params []float64, dOut *tensor.Matrix, dParams []float64, wantDIn bool) *tensor.Matrix {
	dW := &tensor.Matrix{Rows: d.out, Cols: d.in, Data: dParams[:d.out*d.in]}
	dB := dParams[d.out*d.in:]
	// dW += dOut^T * in ; dB += column sums of dOut ; dIn = dOut * W.
	tensor.GemmTA(1, dOut, d.lastIn, 1, dW)
	for i := 0; i < dOut.Rows; i++ {
		tensor.Axpy(1, dOut.Row(i), dB)
	}
	if !wantDIn {
		return nil
	}
	dIn := ensureMat(&d.dInBuf, dOut.Rows, d.in)
	tensor.Gemm(1, dOut, d.weights(params), 0, dIn) // beta=0 overwrites
	return dIn
}

// Clone implements Layer.
func (d *Dense) Clone() Layer { return NewDense(d.in, d.out) }

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	dim     int
	lastOut *tensor.Matrix

	outBuf, dInBuf, evalBuf *tensor.Matrix // scratch arena
}

// NewReLU creates a ReLU over vectors of the given length.
func NewReLU(dim int) *ReLU { return &ReLU{dim: dim} }

// InDim implements Layer.
func (l *ReLU) InDim() int { return l.dim }

// OutDim implements Layer.
func (l *ReLU) OutDim() int { return l.dim }

// ParamLen implements Layer.
func (l *ReLU) ParamLen() int { return 0 }

// Init implements Layer (no parameters).
func (l *ReLU) Init([]float64, *rng.Rand) {}

// Forward implements Layer: v where v > 0, +0 where v <= 0, and NaN where v
// is NaN (sign and payload kept) — a diverged activation stays visible
// instead of turning into a finite zero.
func (l *ReLU) Forward(_ []float64, in *tensor.Matrix) *tensor.Matrix {
	l.lastOut = l.clamp(in, &l.outBuf)
	return l.lastOut
}

func (l *ReLU) forwardOnly(_ []float64, in *tensor.Matrix) *tensor.Matrix {
	return l.clamp(in, &l.evalBuf)
}

func (l *ReLU) clamp(in *tensor.Matrix, buf **tensor.Matrix) *tensor.Matrix {
	out := ensureMat(buf, in.Rows, in.Cols)
	tensor.ReLU(out.Data[:len(in.Data)], in.Data)
	return out
}

// Backward implements Layer: the gradient passes wherever Forward passed
// the value (NaN activations included) and is +0 elsewhere.
func (l *ReLU) Backward(_ []float64, dOut *tensor.Matrix, _ []float64) *tensor.Matrix {
	dIn := ensureMat(&l.dInBuf, dOut.Rows, dOut.Cols)
	// Forward's output is +0 exactly where it clamped.
	n := len(l.lastOut.Data)
	tensor.ReLUGrad(dIn.Data[:n], dOut.Data[:n], l.lastOut.Data)
	return dIn
}

// Clone implements Layer.
func (l *ReLU) Clone() Layer { return NewReLU(l.dim) }

// Tanh applies tanh elementwise.
type Tanh struct {
	dim     int
	lastOut *tensor.Matrix

	outBuf, dInBuf, evalBuf *tensor.Matrix // scratch arena
}

// NewTanh creates a Tanh over vectors of the given length.
func NewTanh(dim int) *Tanh { return &Tanh{dim: dim} }

// InDim implements Layer.
func (l *Tanh) InDim() int { return l.dim }

// OutDim implements Layer.
func (l *Tanh) OutDim() int { return l.dim }

// ParamLen implements Layer.
func (l *Tanh) ParamLen() int { return 0 }

// Init implements Layer (no parameters).
func (l *Tanh) Init([]float64, *rng.Rand) {}

// Forward implements Layer.
func (l *Tanh) Forward(_ []float64, in *tensor.Matrix) *tensor.Matrix {
	l.lastOut = l.squash(in, &l.outBuf)
	return l.lastOut
}

func (l *Tanh) forwardOnly(_ []float64, in *tensor.Matrix) *tensor.Matrix {
	return l.squash(in, &l.evalBuf)
}

func (l *Tanh) squash(in *tensor.Matrix, buf **tensor.Matrix) *tensor.Matrix {
	out := ensureMat(buf, in.Rows, in.Cols)
	for i, v := range in.Data {
		out.Data[i] = math.Tanh(v)
	}
	return out
}

// Backward implements Layer.
func (l *Tanh) Backward(_ []float64, dOut *tensor.Matrix, _ []float64) *tensor.Matrix {
	dIn := ensureMat(&l.dInBuf, dOut.Rows, dOut.Cols)
	for i, y := range l.lastOut.Data {
		dIn.Data[i] = dOut.Data[i] * (1 - y*y)
	}
	return dIn
}

// Clone implements Layer.
func (l *Tanh) Clone() Layer { return NewTanh(l.dim) }

// Conv2D is a 2-D convolution over channel-major flattened images,
// implemented with im2col so the per-sample work is one matrix multiply.
// Parameters: filters W (F x C*K*K, row-major) followed by biases (F).
//
// Operand layouts, per sample (P = outH*outW positions, L = C*K*K): the
// lowered patches X are P x L, one row per output position; a sample's
// output row, and its gradient G, read as the F x P matrix they already are
// in channel-major order. Forward is out = W*X^T (GemmTB, dot form);
// Backward is dW += G*X (Gemm) and dX = G^T*W (GemmTA), both axpy form with
// G as the coefficient operand, so the exact zeros ReLU and pooling leave
// in G are skipped, not multiplied. No product is ever transposed, and no
// sample's X outlives its products: Backward lowers it again from the
// cached input (the package comment).
type Conv2D struct {
	shape   tensor.ConvShape
	filters int
	lastIn  *tensor.Matrix // forward cache: backward re-lowers each sample from it
	// Scratch, one set per pass, so neither pass writes what the other
	// reads: each is ONE P x PatchLen patches matrix, re-lowered per sample,
	// and one padded image of PadLen. The training forward and backward
	// share patch and pad (backward re-lowers into them); dPad is Raise's
	// own, because Raise dirties the border Lower needs to stay zero.
	patch, evalPatch, dPatchBuf *tensor.Matrix
	pad, evalPad, dPad          []float64

	outBuf, dInBuf, evalBuf *tensor.Matrix // scratch arena
}

// NewConv2D creates a convolution from the given input shape to `filters`
// output channels with a square kernel.
func NewConv2D(channels, height, width, kernel, stride, pad, filters int) *Conv2D {
	s := tensor.ConvShape{
		Channels: channels, Height: height, Width: width,
		Kernel: kernel, Stride: stride, Pad: pad,
	}
	if s.OutHeight() < 1 || s.OutWidth() < 1 || filters < 1 {
		panic("nn: Conv2D produces empty output")
	}
	return &Conv2D{shape: s, filters: filters}
}

// OutShape returns the (channels, height, width) of the output images.
func (c *Conv2D) OutShape() (channels, height, width int) {
	return c.filters, c.shape.OutHeight(), c.shape.OutWidth()
}

// InDim implements Layer.
func (c *Conv2D) InDim() int { return c.shape.Channels * c.shape.Height * c.shape.Width }

// OutDim implements Layer.
func (c *Conv2D) OutDim() int { return c.filters * c.shape.OutHeight() * c.shape.OutWidth() }

// ParamLen implements Layer.
func (c *Conv2D) ParamLen() int { return c.filters*c.shape.PatchLen() + c.filters }

// Init uses He initialization over the fan-in C*K*K.
func (c *Conv2D) Init(params []float64, r *rng.Rand) {
	fanIn := float64(c.shape.PatchLen())
	std := math.Sqrt(2 / fanIn)
	nw := c.filters * c.shape.PatchLen()
	r.FillNormFloat64(params[:nw])
	for i := range params[:nw] {
		params[i] = std * params[i]
	}
	for i := nw; i < len(params); i++ {
		params[i] = 0
	}
}

func (c *Conv2D) kernelMatrix(params []float64) *tensor.Matrix {
	return &tensor.Matrix{Rows: c.filters, Cols: c.shape.PatchLen(),
		Data: params[:c.filters*c.shape.PatchLen()]}
}

// positions returns P, the number of output positions per channel.
func (c *Conv2D) positions() int { return c.shape.OutHeight() * c.shape.OutWidth() }

// scratch returns the pass's patches matrix and padded image, allocating
// them on the pass's first call.
func (c *Conv2D) scratch(patch **tensor.Matrix, pad *[]float64) (*tensor.Matrix, []float64) {
	if *pad == nil {
		*pad = make([]float64, c.shape.PadLen())
	}
	return ensureMat(patch, c.positions(), c.shape.PatchLen()), *pad
}

// Forward implements Layer. Output rows are channel-major flattened images
// of shape (filters, outH, outW).
func (c *Conv2D) Forward(params []float64, in *tensor.Matrix) *tensor.Matrix {
	c.lastIn = in
	x, pad := c.scratch(&c.patch, &c.pad)
	return c.convolve(params, in, x, pad, &c.outBuf)
}

func (c *Conv2D) forwardOnly(params []float64, in *tensor.Matrix) *tensor.Matrix {
	x, pad := c.scratch(&c.evalPatch, &c.evalPad)
	return c.convolve(params, in, x, pad, &c.evalBuf)
}

// convolve is either forward pass: per sample, lower the image into x, then
// its output row, read as the F x P matrix it is, = W*x^T + bias.
func (c *Conv2D) convolve(params []float64, in, x *tensor.Matrix, pad []float64, buf **tensor.Matrix) *tensor.Matrix {
	out := ensureMat(buf, in.Rows, c.OutDim())
	w := c.kernelMatrix(params)
	bias := params[c.filters*c.shape.PatchLen():]
	for i := 0; i < in.Rows; i++ {
		tensor.Lower(c.shape, in.Row(i), pad, x)
		y := tensor.Matrix{Rows: c.filters, Cols: c.positions(), Data: out.Row(i)}
		tensor.GemmTB(1, w, x, 0, &y) // (F x P), beta=0 overwrites
		for f, b := range bias {
			row := y.Row(f)
			for pos := range row {
				row[pos] += b
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(params []float64, dOut *tensor.Matrix, dParams []float64) *tensor.Matrix {
	return c.backward(params, dOut, dParams, true)
}

func (c *Conv2D) backwardParams(params []float64, dOut *tensor.Matrix, dParams []float64) {
	c.backward(params, dOut, dParams, false)
}

// backward accumulates dW and dB, re-lowering each sample from lastIn (the
// same bits Forward multiplied); the input gradient — one GemmTA and one
// Raise per sample — only when asked to.
func (c *Conv2D) backward(params []float64, dOut *tensor.Matrix, dParams []float64, wantDIn bool) *tensor.Matrix {
	w := c.kernelMatrix(params)
	dW := &tensor.Matrix{Rows: c.filters, Cols: c.shape.PatchLen(),
		Data: dParams[:c.filters*c.shape.PatchLen()]}
	dB := dParams[c.filters*c.shape.PatchLen():]
	p := c.positions()
	x, pad := c.scratch(&c.patch, &c.pad)
	var dIn, dPatches *tensor.Matrix
	var dPad []float64
	if wantDIn {
		dIn = ensureMat(&c.dInBuf, dOut.Rows, c.InDim())
		dPatches, dPad = c.scratch(&c.dPatchBuf, &c.dPad)
	}
	for i := 0; i < dOut.Rows; i++ {
		g := tensor.Matrix{Rows: c.filters, Cols: p, Data: dOut.Row(i)}
		addRowSums(&g, dB)
		tensor.Lower(c.shape, c.lastIn.Row(i), pad, x)
		tensor.Gemm(1, &g, x, 1, dW) // dW += G * X
		if wantDIn {
			tensor.GemmTA(1, &g, w, 0, dPatches) // dX = G^T * W, beta=0 overwrites
			tensor.Raise(c.shape, dPatches, dPad, dIn.Row(i))
		}
	}
	return dIn
}

// addRowSums adds each row of g into its element of acc, left to right.
// Four rows advance together: a row's sum is one dependent chain of adds,
// and four independent chains keep the adder busy instead of waiting on it.
func addRowSums(g *tensor.Matrix, acc []float64) {
	f := 0
	for ; f+4 <= g.Rows; f += 4 {
		r0, r1, r2, r3 := g.Row(f), g.Row(f+1), g.Row(f+2), g.Row(f+3)
		s0, s1, s2, s3 := acc[f], acc[f+1], acc[f+2], acc[f+3]
		for j, v := range r0 {
			s0 += v
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		acc[f], acc[f+1], acc[f+2], acc[f+3] = s0, s1, s2, s3
	}
	for ; f < g.Rows; f++ {
		s := acc[f]
		for _, v := range g.Row(f) {
			s += v
		}
		acc[f] = s
	}
}

// Clone implements Layer.
func (c *Conv2D) Clone() Layer {
	return &Conv2D{shape: c.shape, filters: c.filters}
}

// MaxPool2x2 downsamples channel-major images by taking the max over
// non-overlapping 2x2 windows. Height and width must be even.
type MaxPool2x2 struct {
	channels, height, width int
	// argmax records, for every batch row and output element, the winning
	// input index: row i's entries live at [i*OutDim(), (i+1)*OutDim()).
	argmax []int

	outBuf, dInBuf, evalBuf *tensor.Matrix // scratch arena
}

// NewMaxPool2x2 creates the pooling layer for the given input image shape.
func NewMaxPool2x2(channels, height, width int) *MaxPool2x2 {
	if height%2 != 0 || width%2 != 0 {
		panic("nn: MaxPool2x2 requires even height and width")
	}
	return &MaxPool2x2{channels: channels, height: height, width: width}
}

// OutShape returns the output image shape.
func (m *MaxPool2x2) OutShape() (channels, height, width int) {
	return m.channels, m.height / 2, m.width / 2
}

// InDim implements Layer.
func (m *MaxPool2x2) InDim() int { return m.channels * m.height * m.width }

// OutDim implements Layer.
func (m *MaxPool2x2) OutDim() int { return m.channels * (m.height / 2) * (m.width / 2) }

// ParamLen implements Layer.
func (m *MaxPool2x2) ParamLen() int { return 0 }

// Init implements Layer (no parameters).
func (m *MaxPool2x2) Init([]float64, *rng.Rand) {}

// Forward implements Layer.
func (m *MaxPool2x2) Forward(_ []float64, in *tensor.Matrix) *tensor.Matrix {
	n := m.OutDim()
	out := ensureMat(&m.outBuf, in.Rows, n)
	if need := in.Rows * n; cap(m.argmax) < need {
		m.argmax = make([]int, need)
	} else {
		m.argmax = m.argmax[:need]
	}
	for i := 0; i < in.Rows; i++ {
		poolImage(in.Row(i), m.width, out.Row(i), m.argmax[i*n:(i+1)*n])
	}
	return out
}

// forwardOnly pools without a record: no Backward will ask who won.
func (m *MaxPool2x2) forwardOnly(_ []float64, in *tensor.Matrix) *tensor.Matrix {
	out := ensureMat(&m.evalBuf, in.Rows, m.OutDim())
	for i := 0; i < in.Rows; i++ {
		poolImage(in.Row(i), m.width, out.Row(i), nil)
	}
	return out
}

// poolImage pools the 2x2 windows of src into dst and, unless argmax is nil,
// records each winner's offset in src. Channels are stacked image rows with
// an even row count, so the image is walked as one tall plane, two rows at a
// time. The first of equal maxima wins, in the order (0,0), (0,1), (1,0),
// (1,1). A function of its own so the loop's handful of live values stay in
// registers.
func poolImage(src []float64, width int, dst []float64, argmax []int) {
	record := argmax != nil
	if record {
		argmax = argmax[:len(dst)]
	}
	p, rowEnd := 0, width // p: the window's top-left element
	for o := range dst {
		top, bot := src[p:p+2:p+2], src[p+width:p+width+2:p+width+2]
		best, at := pickMax(top[0], p, top[1], p+1)
		best, at = pickMax(best, at, bot[0], p+width)
		best, at = pickMax(best, at, bot[1], p+width+1)
		dst[o] = best
		if record {
			argmax[o] = at
		}
		if p += 2; p == rowEnd { // next pair of image rows
			p += width
			rowEnd += 2 * width
		}
	}
}

// pickMax returns (v, vIdx) when v > best and (best, bestIdx) otherwise —
// the comparison a branch would make (false on NaN, false on equal zeros of
// either sign), applied as a bit mask: activations are as good as random to
// a branch predictor.
func pickMax(best float64, bestIdx int, v float64, vIdx int) (float64, int) {
	var take uint64
	if v > best {
		take = 1
	}
	take = -take
	b, vb := math.Float64bits(best), math.Float64bits(v)
	return math.Float64frombits(b ^ (b^vb)&take), bestIdx ^ (bestIdx^vIdx)&int(take)
}

// Backward implements Layer.
func (m *MaxPool2x2) Backward(_ []float64, dOut *tensor.Matrix, _ []float64) *tensor.Matrix {
	dIn := ensureMat(&m.dInBuf, dOut.Rows, m.InDim())
	tensor.Zero(dIn.Data) // gradients scatter-add into the argmax winners
	for i := 0; i < dOut.Rows; i++ {
		src := dOut.Row(i)
		dst := dIn.Row(i)
		for o, idx := range m.argmax[i*m.OutDim() : (i+1)*m.OutDim()] {
			dst[idx] += src[o]
		}
	}
	return dIn
}

// Clone implements Layer.
func (m *MaxPool2x2) Clone() Layer { return NewMaxPool2x2(m.channels, m.height, m.width) }

// Residual wraps an inner layer stack F with a skip connection:
// out = in + F(in). Inner input and output dims must match, which is the
// identity-shortcut residual block of ResNet.
type Residual struct {
	inner []Layer
	// parameter slicing within the residual's own parameter block
	offsets []int
	total   int

	outBuf, dInBuf, evalBuf *tensor.Matrix // scratch arena
}

// NewResidual builds a residual block around the inner layers.
func NewResidual(inner ...Layer) *Residual {
	if len(inner) == 0 {
		panic("nn: Residual needs inner layers")
	}
	total := 0
	offsets := make([]int, len(inner))
	for i, l := range inner {
		if i > 0 && inner[i-1].OutDim() != l.InDim() {
			panic("nn: Residual inner dims mismatch")
		}
		offsets[i] = total
		total += l.ParamLen()
	}
	if inner[0].InDim() != inner[len(inner)-1].OutDim() {
		panic("nn: Residual requires matching in/out dims for the skip connection")
	}
	return &Residual{inner: inner, offsets: offsets, total: total}
}

// InDim implements Layer.
func (r *Residual) InDim() int { return r.inner[0].InDim() }

// OutDim implements Layer.
func (r *Residual) OutDim() int { return r.inner[len(r.inner)-1].OutDim() }

// ParamLen implements Layer.
func (r *Residual) ParamLen() int { return r.total }

// Init implements Layer.
func (r *Residual) Init(params []float64, rnd *rng.Rand) {
	for i, l := range r.inner {
		l.Init(params[r.offsets[i]:r.offsets[i]+l.ParamLen()], rnd)
	}
}

// Forward implements Layer.
func (r *Residual) Forward(params []float64, in *tensor.Matrix) *tensor.Matrix {
	return r.skip(Layer.Forward, params, in, &r.outBuf)
}

func (r *Residual) forwardOnly(params []float64, in *tensor.Matrix) *tensor.Matrix {
	return r.skip(forwardOnly, params, in, &r.evalBuf)
}

// skip writes in + F(in) into *buf, running the inner stack F through the
// given forward pass.
func (r *Residual) skip(pass func(Layer, []float64, *tensor.Matrix) *tensor.Matrix,
	params []float64, in *tensor.Matrix, buf **tensor.Matrix) *tensor.Matrix {
	cur := in
	for i, l := range r.inner {
		cur = pass(l, params[r.offsets[i]:r.offsets[i]+l.ParamLen()], cur)
	}
	out := ensureMat(buf, in.Rows, in.Cols)
	tensor.Add(out.Data, in.Data, cur.Data)
	return out
}

// Backward implements Layer.
func (r *Residual) Backward(params []float64, dOut *tensor.Matrix, dParams []float64) *tensor.Matrix {
	cur := dOut
	for i := len(r.inner) - 1; i >= 0; i-- {
		l := r.inner[i]
		cur = l.Backward(params[r.offsets[i]:r.offsets[i]+l.ParamLen()],
			cur, dParams[r.offsets[i]:r.offsets[i]+l.ParamLen()])
	}
	dIn := ensureMat(&r.dInBuf, dOut.Rows, dOut.Cols)
	tensor.Add(dIn.Data, dOut.Data, cur.Data) // skip path + inner path
	return dIn
}

// Clone implements Layer.
func (r *Residual) Clone() Layer {
	inner := make([]Layer, len(r.inner))
	for i, l := range r.inner {
		inner[i] = l.Clone()
	}
	return NewResidual(inner...)
}
