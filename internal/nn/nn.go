// Package nn is the hand-rolled neural-network substrate for the AdaComm
// reproduction: a small layer zoo (dense, conv, pooling, residual blocks),
// softmax-cross-entropy and MSE losses, and a Network type with exact
// analytic gradients verified by finite differences.
//
// The paper trains VGG-16 and ResNet-50; this package provides "VGGNano"
// and "ResNetNano" — architecturally faithful miniatures (conv stacks with
// pooling; residual skip connections) sized so that thousands of mini-batch
// SGD steps run in seconds on a CPU. What the error-runtime analysis needs
// from the model is only non-convexity, smoothness, and stochastic-gradient
// noise; both miniatures provide all three.
//
// All model parameters live in one flat []float64 so that PASGD's model
// averaging (paper eq 3) is a single vector mean, and so workers can
// exchange parameters without reflection or serialization overhead.
//
// # Training pass and evaluation pass
//
// AdaComm's rule (paper eq 17) reads the training loss at every interval
// boundary and every error-runtime figure is a curve of evaluated losses, so
// evaluation is part of what the method costs. It is a pass of its own.
//
// Network.Forward and Network.LossGrad are the TRAINING pass: each layer's
// Forward keeps what its Backward reads, in buffers sized by the batch (see
// the arena comment in layers.go for what each layer keeps). LossGrad asks
// layer 0 for its parameter gradient only — nothing reads the gradient with
// respect to the data (paramGrader).
//
// Network.Loss and Network.Accuracy are the EVALUATION pass: they walk the
// batch in chunks of evalChunk rows through the layers' forward-only path,
// which keeps nothing. An evaluation batch is the whole training or test
// set (hundreds of rows) where a training batch is 16: running the training
// forward over it grew every layer's arenas to 384 or 512 rows (~25 MB per
// engine, each store a cache miss); a chunk's buffers stay resident and are
// chunk x layer width.
//
// Chunking cannot change a bit, because every layer is ROW-INDEPENDENT: an
// output row is a function of its input row and the parameters alone (the
// kernels' canonical reduce order is per output element, conv lowers and
// multiplies one sample at a time, the elementwise layers and pooling never
// look across rows), and the loss is the left-to-right sum of per-row terms
// times 1/rows, which Loss.AddRows continues across chunks (each loss has ONE
// per-row loop under Eval and AddRows). oracle_test.go keeps the whole-batch
// evaluation this replaced (Forward + Eval, the old argmax loop) and
// compares every zoo model at rows {1, 15, 16, 17, 384, 512}, finite and
// with NaN/Inf planted, bit for bit.
//
// Why the split: a CPU profile of the conv_pasgd benchmark workload before
// it (seed 1, 2 vCPU) put Network.Loss at 7.60 s beside Network.LossGrad at
// 7.63 s of 16.7 s. The same number of samples went forward through both
// (the dot tile 1.57 s vs 1.64 s), but the conv lowering (then an index
// table's gather) cost 4.02 s in evaluation against 1.02 s in training and ReLU.Forward 0.84 s against
// 0.20 s: evaluation ran the training forward over all 384 rows, and its
// arenas were 123 of the workload's 154 MB alloc_mb.
//
// How each layer takes part: forwardOnlyLayer, an unexported optional
// interface every layer here implements, runs the same arithmetic into
// evalBuf, a buffer of its own, and caches nothing. Conv2D lowers through
// evalPatch and evalPad, twins of the training forward's patch and pad
// (both passes run convolve); MaxPool2x2 records no argmax (poolImage with a
// nil record); Residual recurses (skip takes the pass as a function); Dense,
// ReLU and Tanh write the other buffer and keep no pointer.
//
// Beside row-independence, two contracts hold the passes apart:
//
//   - The two passes share a layer safely. The forward-only pass touches no
//     field the training pass owns (patch, pad, argmax, lastIn, lastOut,
//     outBuf), so Forward -> Loss(other) -> backward yields the same
//     gradient, and a network that only evaluates (the engines' evaluation
//     model) never allocates a backward-sized buffer; a test pins this by
//     reflection over every layer field. GradCheck fails outright if the two
//     passes disagree on one bit.
//   - Network.Forward is the TRAINING forward, and the standalone layer
//     Forward/Backward keep their meaning (the benchmark's probes call
//     them). LossGrad asks layer 0 for backwardParams (paramGrader: Conv2D
//     skips GemmTA and Raise; Dense skips Gemm(dOut, W);
//     one backward(..., wantDIn) loop each). A Residual first layer takes
//     the full Backward, and a Residual's inner first layer is not the
//     network's first.
//
// # Conv2D: one sample's patches at a time
//
// Conv2D lowers a sample into ONE P x L patches matrix X (P output
// positions, L = C*K*K) with tensor.Lower, which copies the image into the
// interior of a zero-bordered scratch image (pad) and writes every element
// of X as runs of pad, so no element is tested against the image's bounds
// and X needs no preparation. The products transpose nothing: a sample's output row and its
// gradient G are read as the F x P matrices they already are, forward is
// GemmTB(W, X) (dot form), backward is Gemm(G, X) into dW and GemmTA(G, W)
// into dX (axpy form, G in the coefficient seat, so the exact zeros ReLU and
// pooling leave in G are skipped) — term for term what a P x F product and
// two strided copies compute (tensor/naive.go says why the swap is exact).
// tensor.Raise takes dX back to the image (Zero + Col2Im, bit for bit).
//
// THE RULE: the training forward keeps its INPUT (lastIn, as Dense does), not
// the lowered patches, and backward re-lowers sample i from lastIn.Row(i)
// before Gemm(G, X): Lower is a copy, so X is the same bits. A batch-stacked
// patches cache, which only backward read, cost 16 x 64 x 72 x 8 B = 590 KB
// per ResNetNano trunk conv — past a 2 MB L2 per replica, and ~13 of the
// conv_pasgd workload's 31 MB alloc_mb. Each pass owns its scratch: the
// training pass patch + pad (forward and backward's re-lowering), the
// forward-only pass evalPatch + evalPad, backward's input gradient dPatchBuf
// + dPad (Raise clears and dirties its padded image, so it never shares
// Lower's, whose border only ever holds its allocation-time zero). Held by oracle_test.go (TestConv2DMatchesTransposingReference: the
// old transposing path on the naive kernels; TestCloneSharesNoScratch),
// eval_test.go (TestConvBackwardAfterForwardOnly and the reflection test
// over every field), and the 0-alloc gates.
//
// Accuracy never counts a row holding a NaN logit: a bare argmax settles on
// class 0, and a diverged model scored ~1/classes. Loss and Accuracy
// allocate nothing on both conv nets at 384 and 389 rows (the chunk's
// tensor.Matrix view lives in Network.evalIn: a local would escape through
// the Layer interface), and neither do the cluster engines' TrainLoss and
// TestAccuracy or the parameter server's Loss; tier-1 tests gate all of it.
package nn

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Layer is one differentiable stage of a network. A layer owns forward
// caches AND the scratch matrices it returns from Forward/Backward (it is
// NOT safe for concurrent use); each simulated worker clones the network so
// the caches never race. Returned matrices are reused across calls: they
// remain valid only until the layer's next Forward/Backward, and callers
// that retain results must copy them.
//
// Every layer must be row-independent — output row i depends on input row i
// and the parameters only — which is what lets the evaluation pass feed a
// batch through in chunks (package comment).
type Layer interface {
	// InDim and OutDim are the flattened input/output lengths per example.
	InDim() int
	OutDim() int
	// ParamLen is the number of parameters this layer owns.
	ParamLen() int
	// Init writes an initialization into params (length ParamLen).
	Init(params []float64, r *rng.Rand)
	// Forward computes the layer output for a batch (rows are examples)
	// and caches whatever Backward needs: it is the TRAINING forward (the
	// evaluation pass goes through forwardOnlyLayer). An elementwise layer
	// maps NaN to NaN, whatever its sign or payload: a diverged activation
	// must reach the loss as NaN, not be laundered into a finite value on
	// the way (ReLU passes NaN through where a bare `v > 0` test would clamp
	// it to 0). MaxPool2x2 is a comparison, not elementwise: a NaN that is
	// not first in its window loses to any number.
	Forward(params []float64, in *tensor.Matrix) *tensor.Matrix
	// Backward consumes the gradient w.r.t. the layer output, accumulates
	// the parameter gradient into dParams (length ParamLen, NOT zeroed),
	// and returns the gradient w.r.t. the layer input.
	Backward(params []float64, dOut *tensor.Matrix, dParams []float64) *tensor.Matrix
	// Clone returns a fresh layer with identical configuration and empty
	// caches. Parameters live outside the layer, so Clone is cheap.
	Clone() Layer
}

// forwardOnlyLayer is the evaluation pass of a layer: Forward's output, bit
// for bit, computed into a buffer Forward and Backward never touch and
// caching nothing, so it may run between a Forward and its Backward. Every
// layer in this package has one; a Layer without it is evaluated through
// Forward.
type forwardOnlyLayer interface {
	forwardOnly(params []float64, in *tensor.Matrix) *tensor.Matrix
}

// forwardOnly runs one layer of the evaluation pass.
func forwardOnly(l Layer, params []float64, in *tensor.Matrix) *tensor.Matrix {
	if f, ok := l.(forwardOnlyLayer); ok {
		return f.forwardOnly(params, in)
	}
	return l.Forward(params, in)
}

// paramGrader is a layer that can run Backward without the input gradient
// (Dense and Conv2D: it is a product of its own there, and for a network's
// FIRST layer the gradient with respect to the data that nothing reads).
// Only Network.LossGrad calls it, and only on layer 0: a layer inside a
// Residual is never the network's first, and a standalone Backward always
// returns the real input gradient.
type paramGrader interface {
	backwardParams(params []float64, dOut *tensor.Matrix, dParams []float64)
}

// evalChunk is how many rows the evaluation pass feeds through the layers at
// a time: the conv workloads' training batch, so an evaluating network's
// buffers are the size a training step's are and stay cache-resident. What
// it decides exactly is memory — conv_pasgd's alloc_mb reads 29.7 / 31.1 /
// 36.3 / 71.5 MB at chunks of 4 / 16 / 64 / the whole batch (154 before the
// pass existed); in time, ISSUE 17's sizing runs read 64 and unchunked ~8%
// behind 4 and 16, a difference the building host was too noisy to repeat
// (CHANGES.md, PR 17). A constant, not a knob: by row-independence no result
// depends on it.
const evalChunk = 16

// Loss maps network outputs and batch targets to a scalar mean loss and,
// optionally, the gradient w.r.t. the outputs.
type Loss interface {
	// Eval returns the mean loss over the batch. If dOut is non-nil it is
	// filled with d(meanLoss)/d(out).
	Eval(out *tensor.Matrix, b data.Batch, dOut *tensor.Matrix) float64
	// AddRows continues a running sum: it returns total plus the loss of
	// each row of out (b holds those rows' targets), added one row at a
	// time in row order and NOT divided by the row count. Feeding a batch
	// through in consecutive chunks, starting from 0, and scaling the
	// result by 1/rows once is therefore Eval(out, b, nil) bit for bit.
	AddRows(total float64, out *tensor.Matrix, b data.Batch) float64
}

// Network is a sequential stack of layers with one flat parameter vector.
// It implements the Model contract used by the cluster engine.
type Network struct {
	layers  []Layer
	offsets []int // parameter offset per layer
	params  []float64
	loss    Loss
	classes int // >0 when the network is a classifier

	dOutBuf *tensor.Matrix // scratch for the loss gradient in LossGrad
	// evalIn is the evaluation pass's view of the chunk it is on. A field
	// because the view crosses the Layer interface: a local would move to
	// the heap on every call.
	evalIn tensor.Matrix
}

// NewNetwork builds a network from layers and a loss, validating that
// adjacent dimensions agree. classes > 0 marks a classifier whose output
// dimension must equal classes.
func NewNetwork(loss Loss, classes int, layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: network needs at least one layer")
	}
	total := 0
	offsets := make([]int, len(layers))
	for i, l := range layers {
		if i > 0 && layers[i-1].OutDim() != l.InDim() {
			panic(fmt.Sprintf("nn: layer %d out dim %d != layer %d in dim %d",
				i-1, layers[i-1].OutDim(), i, l.InDim()))
		}
		offsets[i] = total
		total += l.ParamLen()
	}
	if classes > 0 && layers[len(layers)-1].OutDim() != classes {
		panic(fmt.Sprintf("nn: classifier output dim %d != classes %d",
			layers[len(layers)-1].OutDim(), classes))
	}
	return &Network{
		layers:  layers,
		offsets: offsets,
		params:  make([]float64, total),
		loss:    loss,
		classes: classes,
	}
}

// InitParams initializes every layer's parameters from r.
func (n *Network) InitParams(r *rng.Rand) {
	for i, l := range n.layers {
		l.Init(n.layerParams(i), r)
	}
}

func (n *Network) layerParams(i int) []float64 {
	return n.params[n.offsets[i] : n.offsets[i]+n.layers[i].ParamLen()]
}

// ParamLen returns the total number of parameters.
func (n *Network) ParamLen() int { return len(n.params) }

// Params returns the live flat parameter vector (mutations are visible to
// the network).
func (n *Network) Params() []float64 { return n.params }

// SetParams copies src into the network's parameters.
func (n *Network) SetParams(src []float64) { tensor.Copy(n.params, src) }

// InDim returns the expected input dimensionality.
func (n *Network) InDim() int { return n.layers[0].InDim() }

// OutDim returns the output dimensionality.
func (n *Network) OutDim() int { return n.layers[len(n.layers)-1].OutDim() }

// Forward runs the batch through all layers and returns the outputs. It is
// the TRAINING forward — every layer caches what its Backward reads, at the
// batch's full height; Loss and Accuracy do not go through it.
func (n *Network) Forward(in *tensor.Matrix) *tensor.Matrix {
	cur := in
	for i, l := range n.layers {
		cur = l.Forward(n.layerParams(i), cur)
	}
	return cur
}

// evalRows runs the chunk of b that starts at row lo through the
// forward-only pass and returns its outputs with the rows they belong to.
// Targets whose length does not match the batch are left out, so the loss
// meets the mismatch it already panics on.
func (n *Network) evalRows(b data.Batch, lo int) (*tensor.Matrix, data.Batch) {
	hi, cols := min(lo+evalChunk, b.X.Rows), b.X.Cols
	n.evalIn = tensor.Matrix{Rows: hi - lo, Cols: cols, Data: b.X.Data[lo*cols : hi*cols]}
	rows := data.Batch{X: &n.evalIn}
	if len(b.Y) == b.X.Rows {
		rows.Y = b.Y[lo:hi]
	}
	if len(b.T) == b.X.Rows {
		rows.T = b.T[lo:hi]
	}
	cur := rows.X
	for i, l := range n.layers {
		cur = forwardOnly(l, n.layerParams(i), cur)
	}
	return cur, rows
}

// Loss evaluates the mean loss on the batch without computing gradients,
// through the evaluation pass: bit for bit loss.Eval(Forward(b.X), b, nil).
func (n *Network) Loss(b data.Batch) float64 {
	total := 0.0
	for lo := 0; lo < b.X.Rows; lo += evalChunk {
		out, rows := n.evalRows(b, lo)
		total = n.loss.AddRows(total, out, rows)
	}
	return total * (1 / float64(b.X.Rows))
}

// LossGrad evaluates the mean loss and fills grad (length ParamLen) with
// its gradient. grad is zeroed first.
func (n *Network) LossGrad(b data.Batch, grad []float64) float64 {
	if len(grad) != len(n.params) {
		panic(fmt.Sprintf("nn: grad length %d != params %d", len(grad), len(n.params)))
	}
	tensor.Zero(grad)
	return n.backward(n.Forward(b.X), b, grad)
}

// backward is LossGrad after the training forward: the loss of the outputs
// Forward returned for b, and its gradient accumulated into grad from the
// caches that Forward left in the layers.
func (n *Network) backward(out *tensor.Matrix, b data.Batch, grad []float64) float64 {
	dOut := ensureMat(&n.dOutBuf, out.Rows, out.Cols)
	lossVal := n.loss.Eval(out, b, dOut)
	cur := dOut
	for i := len(n.layers) - 1; i > 0; i-- {
		cur = n.layers[i].Backward(n.layerParams(i),
			cur, grad[n.offsets[i]:n.offsets[i]+n.layers[i].ParamLen()])
	}
	// Layer 0's input gradient is the gradient with respect to the data.
	g0 := grad[:n.layers[0].ParamLen()]
	if first, ok := n.layers[0].(paramGrader); ok {
		first.backwardParams(n.layerParams(0), cur, g0)
	} else {
		n.layers[0].Backward(n.layerParams(0), cur, g0)
	}
	return lossVal
}

// Accuracy returns the fraction of batch examples whose argmax output
// matches the label, through the evaluation pass. A row holding a NaN logit
// is never counted correct (every comparison against NaN is false, so a bare
// argmax would settle on class 0 and score a diverged model at about
// 1/classes); the result stays a fraction of the batch, because NaN accuracy
// already means "not measured this round" to metrics.Point. Panics for
// non-classifiers.
func (n *Network) Accuracy(b data.Batch) float64 {
	if n.classes == 0 {
		panic("nn: Accuracy on a non-classifier")
	}
	correct := 0
	for lo := 0; lo < b.X.Rows; lo += evalChunk {
		out, rows := n.evalRows(b, lo)
		for i := 0; i < out.Rows; i++ {
			row := out.Row(i)
			best, nan := 0, math.IsNaN(row[0])
			for j := 1; j < len(row); j++ {
				if row[j] > row[best] {
					best = j
				}
				nan = nan || math.IsNaN(row[j])
			}
			if !nan && best == rows.Y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(b.X.Rows)
}

// Clone returns an independent copy: fresh layer caches, copied parameters.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		layers[i] = l.Clone()
	}
	c := NewNetwork(n.loss, n.classes, layers...)
	copy(c.params, n.params)
	return c
}
