package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Scratch arena: every layer owns the matrices it returns from Forward and
// Backward and reuses them across calls, so the training hot path performs
// no per-step allocations once buffers reach the largest batch size seen.
// The ownership rule is: one arena per layer instance, layer instances
// belong to exactly one Network, and a Network is NOT goroutine-safe — the
// engines hold one network per compute slot, which one goroutine at a time
// runs every step of that slot's workers on (Network.LossGradAt), so arenas
// never race. Returned matrices are valid until the layer's next
// Forward/Backward call; callers that need to retain results must copy them.
//
// One forward per layer. Forward keeps what Backward reads (Dense and
// Conv2D their input, ReLU/Tanh their output, MaxPool2x2 every winner's
// index) in buffers sized by the tallest batch seen. A ReLU right after a
// Conv2D or a Residual is not a layer of its own: NewNetwork and
// NewResidual fold it into that layer (foldReLU), whose outBuf then holds
// the ReLU's output and whose Backward masks by it, so the activation and
// its gradient have one batch-sized buffer each where the pair had two, and
// are not passed over again; such a Backward must get the rows of its
// layer's last Forward, and panics otherwise. Network.Loss and
// Network.Accuracy run the same Forward over evalChunk rows at a time, so a
// network that only evaluates holds chunk-sized buffers, and an evaluation
// between a Forward and its Backward overwrites what that Backward reads.

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

	outBuf, dInBuf *tensor.Matrix // scratch arena
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

// Forward implements Layer: in*W^T + b.
func (d *Dense) Forward(params []float64, in *tensor.Matrix) *tensor.Matrix {
	d.lastIn = in
	w := d.weights(params)
	bias := params[d.out*d.in:]
	out := ensureMat(&d.outBuf, in.Rows, d.out)
	tensor.GemmTB(1, in, w, 0, out) // out = in * W^T (beta=0 overwrites)
	addToRows(out, bias)
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
	addColSums(dOut, dB)
	if !wantDIn {
		return nil
	}
	dIn := ensureMat(&d.dInBuf, dOut.Rows, d.in)
	tensor.Gemm(1, dOut, d.weights(params), 0, dIn) // beta=0 overwrites
	return dIn
}

// Clone implements Layer.
func (d *Dense) Clone() Layer { return NewDense(d.in, d.out) }

// addToRows adds v to every row of m (m.Cols == len(v)): row[j] + v[j].
// A loop, not a tensor.Axpy per row: at the 10-wide head the calls cost more
// than the adds.
func addToRows(m *tensor.Matrix, v []float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols][:len(v)]
		for j, x := range v {
			row[j] += x
		}
	}
}

// addColSums adds each column of g into its element of acc (g.Cols ==
// len(acc)): acc[j] + g[0][j] + g[1][j] + ..., left to right from the value
// already in acc, which is what one tensor.Axpy(1, row, acc) per row adds.
func addColSums(g *tensor.Matrix, acc []float64) {
	for i := 0; i < g.Rows; i++ {
		row := g.Data[i*g.Cols : (i+1)*g.Cols][:len(acc)]
		for j, x := range row {
			acc[j] += x
		}
	}
}

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	dim     int
	lastOut *tensor.Matrix

	outBuf, dInBuf *tensor.Matrix // scratch arena
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
	l.lastOut = ensureMat(&l.outBuf, in.Rows, in.Cols)
	tensor.ReLU(l.lastOut.Data[:len(in.Data)], in.Data)
	return l.lastOut
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

	outBuf, dInBuf *tensor.Matrix // scratch arena
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
	l.lastOut = ensureMat(&l.outBuf, in.Rows, in.Cols)
	for i, v := range in.Data {
		l.lastOut.Data[i] = math.Tanh(v)
	}
	return l.lastOut
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

// Conv2D is a 2-D convolution over channel-major flattened images.
// Parameters: filters W (F x C*K*K, row-major) followed by biases (F).
//
// Operand layouts, per sample (P = outH*outW positions, L = C*K*K): the
// patches X are P x L, one row per output position; a sample's output row,
// and its gradient G, read as the F x P matrix they already are in
// channel-major order. Forward is out = W*X^T + bias, tensor.Convolve;
// Backward is dW += G*X and dX = Col2Im(G^T*W), tensor.ConvGrad, with the
// exact zeros ReLU and pooling leave in G skipped, not multiplied. On the
// AVX2 tier a 3x3 stride-1 conv whose output width is a multiple of four
// (every conv of the zoo) builds no X in either pass: the kernels read the
// patches straight from the padded image, and the input gradient (C a
// multiple of four) comes from per-position rows of G^T*W gathered into the
// image. Every other shape, and the Go tier, lowers X and runs GemmTB, Gemm,
// GemmTA and Raise — the same sums, bit for bit (the package comment). With
// a ReLU folded in (foldReLU) Convolve stores ReLU of each sum and ConvGrad
// masks G by that output as it reads it.
type Conv2D struct {
	shape   tensor.ConvShape
	filters int
	relu    bool           // a ReLU folded in (foldReLU): outBuf holds its output
	lastIn  *tensor.Matrix // forward cache: backward reframes each sample from it
	// Scratch: pad is the padded image the forward and the backward frame
	// each sample into (its border stays zero); patch is the P x PatchLen
	// patches matrix, allocated only where the shape lowers
	// (ConvShape.Direct is false); grad is the backward's own scratch.
	patch *tensor.Matrix
	pad   []float64
	grad  tensor.ConvGrad

	outBuf, dInBuf *tensor.Matrix // scratch arena
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

// scratch returns the padded image, allocating it on the first call, and
// the patches matrix where the shape lowers (nil where it does not).
func (c *Conv2D) scratch() (pad []float64, x *tensor.Matrix) {
	if c.pad == nil {
		c.pad = make([]float64, c.shape.PadLen())
	}
	if !c.shape.Direct() {
		x = ensureMat(&c.patch, c.positions(), c.shape.PatchLen())
	}
	return c.pad, x
}

// Forward implements Layer: each sample's output row, read as the F x P
// matrix it is, becomes W*X^T + bias through tensor.Convolve, and with a
// folded ReLU what ReLU makes of that. Output rows are channel-major
// flattened images of shape (filters, outH, outW).
func (c *Conv2D) Forward(params []float64, in *tensor.Matrix) *tensor.Matrix {
	c.lastIn = in
	pad, x := c.scratch()
	out := ensureMat(&c.outBuf, in.Rows, c.OutDim())
	w := c.kernelMatrix(params)
	bias := params[c.filters*c.shape.PatchLen():]
	for i := 0; i < in.Rows; i++ {
		tensor.Convolve(c.shape, w, bias, in.Row(i), pad, x, out.Row(i), c.relu)
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

// backward accumulates, through tensor.ConvGrad, dB and dW from each sample
// of lastIn (the same bits Forward multiplied); the input gradient only
// when asked to. With a folded ReLU, G is dOut masked by the output Forward
// stored (tensor.ReLUGrad's test), which ConvGrad applies as it reads dOut.
func (c *Conv2D) backward(params []float64, dOut *tensor.Matrix, dParams []float64, wantDIn bool) *tensor.Matrix {
	dW := &tensor.Matrix{Rows: c.filters, Cols: c.shape.PatchLen(),
		Data: dParams[:c.filters*c.shape.PatchLen()]}
	dB := dParams[c.filters*c.shape.PatchLen():]
	pad, x := c.scratch()
	c.grad.Load(c.shape, c.kernelMatrix(params), wantDIn)
	if c.relu {
		checkFoldedRows("Conv2D", c.outBuf, dOut)
	}
	var dIn *tensor.Matrix
	if wantDIn {
		dIn = ensureMat(&c.dInBuf, dOut.Rows, c.InDim())
	}
	for i := 0; i < dOut.Rows; i++ {
		g, out := dOut.Row(i), []float64(nil)
		if c.relu {
			out = c.outBuf.Row(i)
		}
		var dx []float64
		if wantDIn {
			dx = dIn.Row(i)
		}
		c.grad.Sample(g, out, c.lastIn.Row(i), pad, x, dW, dB, dx)
	}
	return dIn
}

// Clone implements Layer.
func (c *Conv2D) Clone() Layer {
	return &Conv2D{shape: c.shape, filters: c.filters, relu: c.relu}
}

// MaxPool2x2 downsamples channel-major images by taking the max over
// non-overlapping 2x2 windows. Height and width must be even.
type MaxPool2x2 struct {
	channels, height, width int
	// argmax records, for every batch row and output element, the winning
	// input index: row i's entries live at [i*OutDim(), (i+1)*OutDim()).
	argmax []int

	outBuf, dInBuf *tensor.Matrix // scratch arena
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

// Forward implements Layer: one tensor.MaxPool per sample, the winners'
// offsets kept for Backward.
func (m *MaxPool2x2) Forward(_ []float64, in *tensor.Matrix) *tensor.Matrix {
	n := m.OutDim()
	out := ensureMat(&m.outBuf, in.Rows, n)
	if need := in.Rows * n; cap(m.argmax) < need {
		m.argmax = make([]int, need)
	} else {
		m.argmax = m.argmax[:need]
	}
	for i := 0; i < in.Rows; i++ {
		tensor.MaxPool(in.Row(i), m.width, out.Row(i), m.argmax[i*n:(i+1)*n])
	}
	return out
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
// identity-shortcut residual block of ResNet. With a ReLU folded in
// (foldReLU) the sum is rectified in place, and Backward masks its gradient
// into dInBuf, which the inner layers then read and the skip path adds.
type Residual struct {
	inner []Layer
	relu  bool // a ReLU folded in (foldReLU): outBuf holds its output
	// parameter slicing within the residual's own parameter block
	offsets []int
	total   int

	outBuf, dInBuf *tensor.Matrix // scratch arena
}

// NewResidual builds a residual block around the inner layers, folding a
// ReLU that directly follows an inner Conv2D or Residual into it
// (foldReLU).
func NewResidual(inner ...Layer) *Residual {
	if len(inner) == 0 {
		panic("nn: Residual needs inner layers")
	}
	for i := 1; i < len(inner); i++ {
		if inner[i-1].OutDim() != inner[i].InDim() {
			panic("nn: Residual inner dims mismatch")
		}
	}
	if inner[0].InDim() != inner[len(inner)-1].OutDim() {
		panic("nn: Residual requires matching in/out dims for the skip connection")
	}
	inner = foldReLU(inner)
	total := 0
	offsets := make([]int, len(inner))
	for i, l := range inner {
		offsets[i] = total
		total += l.ParamLen()
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

// Forward implements Layer: in + F(in).
func (r *Residual) Forward(params []float64, in *tensor.Matrix) *tensor.Matrix {
	cur := in
	for i, l := range r.inner {
		cur = l.Forward(params[r.offsets[i]:r.offsets[i]+l.ParamLen()], cur)
	}
	out := ensureMat(&r.outBuf, in.Rows, in.Cols)
	tensor.Add(out.Data, in.Data, cur.Data)
	if r.relu {
		tensor.ReLU(out.Data, out.Data)
	}
	return out
}

// Backward implements Layer.
func (r *Residual) Backward(params []float64, dOut *tensor.Matrix, dParams []float64) *tensor.Matrix {
	dIn := ensureMat(&r.dInBuf, dOut.Rows, dOut.Cols)
	if r.relu {
		// The folded ReLU's input gradient lands in dIn, which the inner
		// path then reads as its output gradient and the skip path adds.
		checkFoldedRows("Residual", r.outBuf, dOut)
		tensor.ReLUGrad(dIn.Data, dOut.Data, r.outBuf.Data)
		dOut = dIn
	}
	cur := dOut
	for i := len(r.inner) - 1; i >= 0; i-- {
		l := r.inner[i]
		cur = l.Backward(params[r.offsets[i]:r.offsets[i]+l.ParamLen()],
			cur, dParams[r.offsets[i]:r.offsets[i]+l.ParamLen()])
	}
	tensor.Add(dIn.Data, dOut.Data, cur.Data) // skip path + inner path
	return dIn
}

// Clone implements Layer.
func (r *Residual) Clone() Layer {
	inner := make([]Layer, len(r.inner))
	for i, l := range r.inner {
		inner[i] = l.Clone()
	}
	c := NewResidual(inner...)
	c.relu = r.relu
	return c
}

// foldReLU returns layers with every ReLU that directly follows a Conv2D or
// a Residual folded into that layer, which then applies it to its own
// output (outBuf, in place) and masks its Backward by ReLUGrad's test on
// that output: the bits the two layers computed, one activation buffer and
// one gradient buffer fewer, and no pass over either. A layer folds one
// ReLU; a ReLU after anything else, or first, stays a layer of its own.
func foldReLU(layers []Layer) []Layer {
	out := make([]Layer, 0, len(layers))
	for _, l := range layers {
		var folded *bool // the relu flag of the layer before l, if it has one
		if _, ok := l.(*ReLU); ok && len(out) > 0 {
			switch prev := out[len(out)-1].(type) {
			case *Conv2D:
				folded = &prev.relu
			case *Residual:
				folded = &prev.relu
			}
		}
		if folded != nil && !*folded {
			*folded = true
			continue
		}
		out = append(out, l)
	}
	return out
}

// checkFoldedRows panics unless dOut has the rows of out, the output of the
// last Forward, which a folded ReLU's mask reads row by row.
func checkFoldedRows(layer string, out, dOut *tensor.Matrix) {
	if out == nil || out.Rows != dOut.Rows {
		rows := 0
		if out != nil {
			rows = out.Rows
		}
		panic(fmt.Sprintf("nn: %s.Backward with %d gradient rows after a Forward of %d: its folded ReLU masks by that Forward's output",
			layer, dOut.Rows, rows))
	}
}
