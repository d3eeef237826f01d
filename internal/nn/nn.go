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
// # Evaluation: the training forward, evalChunk rows at a time
//
// AdaComm's rule (paper eq 17) reads the training loss at every interval
// boundary and every error-runtime figure is a curve of evaluated losses, so
// evaluation is part of what the method costs.
//
// Every layer has one Forward, which keeps what its Backward reads in
// buffers sized by the batch (the arena comment in layers.go), and
// Network.Forward is that pass over the whole batch. LossGrad runs it and
// then asks layer 0 for its parameter gradient only — nothing reads the
// gradient with respect to the data (paramGrader: Conv2D's ConvGrad skips
// the input gradient; Dense skips Gemm(dOut, W); one backward(..., wantDIn)
// loop each). A
// Residual first layer takes the full Backward, and a Residual's inner first
// layer is not the network's first.
//
// Network.Loss and Network.Accuracy feed the batch through the same Forward
// in chunks of evalChunk rows. An evaluation batch is the whole training or
// test set (hundreds of rows) where a training batch is 16: one forward over
// all of it grew every layer's arenas to 384 or 512 rows (~25 MB per engine,
// each store a cache miss); a chunk's buffers stay resident and are chunk x
// layer width.
//
// LossAt and AccuracyAt evaluate at a parameter vector passed in, over any
// number of networks of one architecture: each layer is handed its slice of
// that vector (evalRows), so no network's own parameters are read or
// copied, and chunk c runs on nets[c % len(nets)], the networks at once
// through par.ForEach, their outputs landing in one rows x classes buffer
// that the loss (one AddRows) or the argmax then reads in row order. One
// network, or a batch of one chunk, takes the chunk-at-a-time loop and
// starts no goroutine; Network.Loss is that loop at the network's own
// parameters. The engines evaluate this way on the networks they train on —
// the lock-step engine on its ComputeWorkers slot networks, the async
// engine on its compute slot, the parameter server on its one network — at
// the global parameters, and keep no evaluation network. An evaluation
// overwrites the caches a pending Backward would read, so nothing evaluates
// between a Forward and its Backward: LossGrad runs the two back to back,
// and the engines evaluate only between rounds or events, after which a
// network's next LossGrad starts with a Forward.
//
// # Training at parameters the network does not own
//
// LossGradAt is LossGrad at a parameter vector passed in, sliced per layer
// as evaluation slices it, and LossGrad is LossGradAt at the network's own.
// So a network is a compute slot's, not a worker's: the lock-step engine
// holds one per ComputeWorkers slot and steps each of the slot's workers on
// it at that worker's parameters, the parameter server one for all its
// workers; m workers cost m parameter vectors and one set of batch-sized
// arenas per slot (the conv_pasgd workload's alloc_mb 10.6 -> 3.0 MB at
// four workers). THE RULE: every LossGradAt starts with a Forward and no
// layer keeps anything derived from the parameters past a call (ConvGrad
// re-reads the filters on every Load), so which network ran a step cannot
// show in a bit. Held by lossgradat_test.go (LossGradAt against a network
// holding the parameters, its own planted with NaN; two vectors
// alternating on one network against two networks) and the engines' pool
// tests at every worker count and width.
//
// Chunking cannot change a bit, nor can the number of networks, because
// every layer is ROW-INDEPENDENT: an output row is a function of its input
// row and the parameters alone (the kernels' canonical reduce order is per
// output element, conv lowers and multiplies one sample at a time, the
// elementwise layers and pooling never look across rows), and the loss is
// the left-to-right sum of per-row terms times 1/rows, which Loss.AddRows
// continues across chunks (each loss has ONE per-row loop under Eval and
// AddRows). oracle_test.go keeps the whole-batch evaluation this replaced
// (Forward + Eval, the old argmax loop) and compares every zoo model at rows
// {1, 15, 16, 17, 384, 512}, finite and with NaN/Inf planted, bit for bit;
// eval_test.go holds LossAt and AccuracyAt over 1, 2 and 3 networks at
// parameters none of them holds to Network.Loss and Network.Accuracy on the
// same grid, and evaluation (at own and foreign parameters) and training,
// interleaved on one network at several heights, to a fresh clone.
//
// Why chunks: a CPU profile of the conv_pasgd benchmark workload before them
// (seed 1, 2 vCPU) put Network.Loss at 7.60 s beside Network.LossGrad at
// 7.63 s of 16.7 s, the conv lowering at 4.02 s in evaluation against 1.02 s
// in training: evaluation ran the forward over all 384 rows, and its arenas
// were 123 of the workload's 154 MB alloc_mb.
//
// # Conv2D: one sample at a time, lowered only where it must be
//
// A sample's output row and its gradient G are read as the F x P matrices
// they already are (P output positions, L = C*K*K), so no product
// transposes anything. The forward is out = W*X^T + bias, X the sample's
// P x L patches, by tensor.Convolve; the backward is dB += G's row sums,
// dW += G*X and dX = Zero + Col2Im(G^T*W), by tensor.ConvGrad (one Load per
// Backward, one Sample per sample). Both copy the image into the
// interior of a zero-bordered scratch image (pad). On the AVX2 tier, for a
// 3x3 stride-1 conv whose output width is a multiple of four (every conv of
// the zoo), neither builds X: the forward's sums, and dW's, read the patch
// elements straight from pad, and the input gradient (C a multiple of four:
// every conv that is not layer 0) is computed from per-position rows of
// G^T*W, three output rows of them in a ring, gathered into each image row
// and stored into dX. Every other shape, and the Go tier, lowers X with
// tensor.Lower (runs of pad, so no element is tested against the image's
// bounds) and runs GemmTB(W, X) and the bias loop forward, Gemm(G, X),
// GemmTA(G, W) and tensor.Raise backward. The backward's products are axpy
// form with G in the coefficient seat, so the exact zeros ReLU and pooling
// leave in G (73-93% of it in conv_pasgd) are skipped, not multiplied, on
// either path. Each path is the other's sums term for term and in order, so
// the tier and the shape never move a bit (tensor/naive.go says why the
// operand seats are exact; tensor/convgrad.go why a missing border position
// is).
//
// THE RULE: the training forward keeps its INPUT (lastIn, as Dense does), not
// patches, and backward reframes sample i from lastIn.Row(i): the frame is a
// copy, so the backward reads the bits the forward's sums read. A
// batch-stacked patches cache, which only backward read, cost 16 x 64 x 72
// x 8 B = 590 KB per ResNetNano trunk conv — past a 2 MB L2 per replica, and
// ~13 of the conv_pasgd workload's 31 MB alloc_mb. The forward and the
// backward share pad, and the patches matrix, which is allocated only where
// the shape lowers (so a replica on the AVX2 tier has none); the backward's
// other scratch is its ConvGrad's own — on the lowered path the patch
// gradients and Raise's padded image (Raise dirties its border, so it never
// shares the one the frames write into, whose border only ever holds its
// allocation-time zero), on the direct path the permuted filters, the
// coefficient lists and the ring. Held by oracle_test.go
// (TestConv2DMatchesTransposingReference: the old transposing path on the
// naive kernels; TestCloneSharesNoScratch), eval_test.go (the chunk-size
// bound over every field), and the 0-alloc gates.
//
// # The ReLU fold: no layer of its own after a conv or a residual block
//
// Every zoo conv but the second of each residual block, and each residual
// block, feeds a ReLU. NewNetwork and NewResidual fold a ReLU that directly
// follows a Conv2D or a Residual into that layer (foldReLU; a flag Clone
// keeps), which rectifies its own output and masks its Backward by
// ReLUGrad's test on it (pass where the output is not +0). On the direct
// path the conv tiles store the rectified sums and ConvGrad's kernels AND
// each coefficient of G with the mask as they list it and sum dB; where a
// pass lowers, ConvGrad masks one sample's G into its own scratch first;
// a Residual adds, rectifies in place and masks into its dInBuf. A
// coefficient is skipped exactly where the separate ReLU's gradient held an
// exact zero and added wherever that was added, so no bit moves on either
// tier; what goes is the ReLU's two batch-sized buffers (5.8 of conv_pasgd's
// 16.4 MB alloc_mb) and its two passes. A ReLU after a Dense (the MLP, VGG's
// head) or first in a stack stays a layer: GemmTA(dOut, in) would need the
// masked gradient as a matrix. Held by TestFoldedReLUMatchesSeparateLayer
// (tensor's stack_tiers_test.go, both tiers), fold_test.go and
// TestTrainingHoldsNoConvReLUBuffers.
//
// Accuracy never counts a row holding a NaN logit: a bare argmax settles on
// class 0, and a diverged model scored ~1/classes. Loss and Accuracy
// allocate nothing on both conv nets at 384 and 389 rows (the chunk's
// tensor.Matrix view lives in Network.evalIn: a local would escape through
// the Layer interface), and neither do LossAt and AccuracyAt on one network,
// the cluster engines' TrainLoss and TestAccuracy at pool width 1 or the
// parameter server's Loss; tier-1 tests gate all of it. Over several
// networks an evaluation pays for par.ForEach's goroutines.
package nn

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Layer is one differentiable stage of a network. A layer owns forward
// caches AND the scratch matrices it returns from Forward/Backward (it is
// NOT safe for concurrent use); the engines hold one network per compute
// slot, each used by one goroutine at a time, so the caches never race.
// Parameters come in with every call and a layer keeps nothing derived from
// them between calls, so one network serves any number of parameter
// vectors (Network.LossGradAt). Returned matrices are reused across calls:
// they remain valid only until the layer's next Forward/Backward, and
// callers that retain results must copy them.
//
// Every layer must be row-independent — output row i depends on input row i
// and the parameters only — which is what lets evaluation feed a batch
// through in chunks (package comment).
type Layer interface {
	// InDim and OutDim are the flattened input/output lengths per example.
	InDim() int
	OutDim() int
	// ParamLen is the number of parameters this layer owns.
	ParamLen() int
	// Init writes an initialization into params (length ParamLen).
	Init(params []float64, r *rng.Rand)
	// Forward computes the layer output for a batch (rows are examples)
	// and caches whatever Backward needs. An elementwise layer maps NaN to
	// NaN, whatever its sign or payload: a diverged activation must reach
	// the loss as NaN, not be laundered into a finite value on the way (ReLU
	// passes NaN through where a bare `v > 0` test would clamp it to 0).
	// MaxPool2x2 is a comparison, not elementwise: a NaN that is not first
	// in its window loses to any number.
	Forward(params []float64, in *tensor.Matrix) *tensor.Matrix
	// Backward consumes the gradient w.r.t. the layer output, accumulates
	// the parameter gradient into dParams (length ParamLen, NOT zeroed),
	// and returns the gradient w.r.t. the layer input.
	Backward(params []float64, dOut *tensor.Matrix, dParams []float64) *tensor.Matrix
	// Clone returns a fresh layer with identical configuration and empty
	// caches. Parameters live outside the layer, so Clone is cheap.
	Clone() Layer
}

// paramGrader is a layer that can run Backward without the input gradient
// (Dense and Conv2D: it is a product of its own there, and for a network's
// FIRST layer the gradient with respect to the data that nothing reads).
// Only Network.LossGradAt calls it, and only on layer 0: a layer inside a
// Residual is never the network's first, and a standalone Backward always
// returns the real input gradient.
type paramGrader interface {
	backwardParams(params []float64, dOut *tensor.Matrix, dParams []float64)
}

// evalChunk is how many rows Loss and Accuracy feed through the layers at a
// time: the conv workloads' training batch, so an evaluating network's
// buffers are the size a training step's are and stay cache-resident (and a
// compute slot's network, which the engines evaluate on, grows none). What
// it decides exactly is memory — conv_pasgd's alloc_mb reads 29.7 / 31.1 /
// 36.3 / 71.5 MB at chunks of 4 / 16 / 64 / the whole batch (154 before
// chunking); in time, the runs that sized it read 64 and unchunked ~8%
// behind 4 and 16, a difference too noisy on a 2-vCPU host to repeat. A
// constant, not a knob: by row-independence no result depends on it.
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
	// evalIn is the view of the chunk Loss or Accuracy is on. A field
	// because the view crosses the Layer interface: a local would move to
	// the heap on every call.
	evalIn tensor.Matrix
	// evalOut holds a batch's outputs while several networks share its
	// chunks, the network being nets[0] (evaluate); nil until then.
	evalOut *tensor.Matrix
}

// NewNetwork builds a network from layers and a loss, validating that
// adjacent dimensions agree. classes > 0 marks a classifier whose output
// dimension must equal classes. A ReLU that directly follows a Conv2D or a
// Residual is folded into that layer (foldReLU), which from then on applies
// it itself.
func NewNetwork(loss Loss, classes int, layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: network needs at least one layer")
	}
	for i := 1; i < len(layers); i++ {
		if layers[i-1].OutDim() != layers[i].InDim() {
			panic(fmt.Sprintf("nn: layer %d out dim %d != layer %d in dim %d",
				i-1, layers[i-1].OutDim(), i, layers[i].InDim()))
		}
	}
	if classes > 0 && layers[len(layers)-1].OutDim() != classes {
		panic(fmt.Sprintf("nn: classifier output dim %d != classes %d",
			layers[len(layers)-1].OutDim(), classes))
	}
	layers = foldReLU(layers)
	total := 0
	offsets := make([]int, len(layers))
	for i, l := range layers {
		offsets[i] = total
		total += l.ParamLen()
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
		l.Init(n.layerParams(n.params, i), r)
	}
}

// layerParams is layer i's slice of params, a vector of the network's
// parameter count (its own, or any other).
func (n *Network) layerParams(params []float64, i int) []float64 {
	return params[n.offsets[i] : n.offsets[i]+n.layers[i].ParamLen()]
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

// Forward runs the whole batch through all layers and returns the outputs;
// every layer caches what its Backward reads, at the batch's full height.
func (n *Network) Forward(in *tensor.Matrix) *tensor.Matrix { return n.forward(n.params, in) }

// forward is Forward at the parameter vector params.
func (n *Network) forward(params []float64, in *tensor.Matrix) *tensor.Matrix {
	cur := in
	for i, l := range n.layers {
		cur = l.Forward(n.layerParams(params, i), cur)
	}
	return cur
}

// evalRows runs the chunk of b that starts at row lo through the layers'
// Forward at the parameter vector params (the network's own, or any other of
// its length) and returns its outputs with the rows they belong to.
// Targets whose length does not match the batch are left out, so the loss
// meets the mismatch it already panics on.
func (n *Network) evalRows(params []float64, b data.Batch, lo int) (*tensor.Matrix, data.Batch) {
	hi, cols := min(lo+evalChunk, b.X.Rows), b.X.Cols
	n.evalIn = tensor.Matrix{Rows: hi - lo, Cols: cols, Data: b.X.Data[lo*cols : hi*cols]}
	rows := data.Batch{X: &n.evalIn}
	if len(b.Y) == b.X.Rows {
		rows.Y = b.Y[lo:hi]
	}
	if len(b.T) == b.X.Rows {
		rows.T = b.T[lo:hi]
	}
	return n.forward(params, rows.X), rows
}

// evaluate hands visit the outputs of b at params, in row order, with the
// rows of b they belong to. On n alone (nets of length < 2, or a batch of one
// chunk) that is a chunk at a time. Over several networks chunk c runs on
// nets[c % len(nets)], the networks at once through par.ForEach, each copying
// its outputs into its rows of one buffer (n.evalOut; nets[0] is n), and
// visit sees the whole batch once. A network runs its own chunks and holds
// its own caches, so the schedule cannot show in the outputs.
func (n *Network) evaluate(nets []*Network, params []float64, b data.Batch, visit func(out *tensor.Matrix, rows data.Batch)) {
	chunks := (b.X.Rows + evalChunk - 1) / evalChunk
	if width := min(len(nets), chunks); width > 1 {
		out := ensureMat(&n.evalOut, b.X.Rows, n.OutDim())
		par.ForEach(width, width, func(w int) {
			for c := w; c < chunks; c += width {
				o, _ := nets[w].evalRows(params, b, c*evalChunk)
				copy(out.Data[c*evalChunk*out.Cols:], o.Data)
			}
		})
		visit(out, b)
		return
	}
	for lo := 0; lo < b.X.Rows; lo += evalChunk {
		visit(n.evalRows(params, b, lo))
	}
}

// sameArch returns nets[0] once every network of nets has its parameter
// count and layer count, and params is that long.
func sameArch(nets []*Network, params []float64) *Network {
	if len(nets) == 0 {
		panic("nn: evaluation needs at least one network")
	}
	n := nets[0]
	for i, o := range nets {
		if len(o.params) != len(params) || len(o.layers) != len(n.layers) {
			panic(fmt.Sprintf("nn: network %d has %d parameters in %d layers, evaluating %d parameters in %d layers",
				i, len(o.params), len(o.layers), len(params), len(n.layers)))
		}
	}
	return n
}

// LossAt evaluates the mean loss at the parameter vector params on b, without
// gradients, over networks of one architecture: what Network.Loss reports on
// a network holding params, bit for bit, however many networks share the
// chunks (Network.evaluate). The networks' own parameters are not read and
// only their layers' caches change, so none may have a Backward pending.
func LossAt(nets []*Network, params []float64, b data.Batch) float64 {
	return sameArch(nets, params).meanLoss(nets, params, b)
}

// AccuracyAt is Network.Accuracy at the parameter vector params over
// networks of one architecture, as LossAt is Network.Loss.
func AccuracyAt(nets []*Network, params []float64, b data.Batch) float64 {
	return sameArch(nets, params).accuracy(nets, params, b)
}

// Loss evaluates the mean loss on the batch without computing gradients, a
// chunk at a time: bit for bit loss.Eval(Forward(b.X), b, nil).
func (n *Network) Loss(b data.Batch) float64 { return n.meanLoss(nil, n.params, b) }

// meanLoss is the loss over nets at params (n alone when nets is nil): the
// outputs' per-row terms summed in row order, across chunks or over the one
// buffer alike (Loss.AddRows), scaled once.
func (n *Network) meanLoss(nets []*Network, params []float64, b data.Batch) float64 {
	total := 0.0
	n.evaluate(nets, params, b, func(out *tensor.Matrix, rows data.Batch) {
		total = n.loss.AddRows(total, out, rows)
	})
	return total * (1 / float64(b.X.Rows))
}

// LossGrad evaluates the mean loss and fills grad (length ParamLen) with
// its gradient. grad is zeroed first.
func (n *Network) LossGrad(b data.Batch, grad []float64) float64 {
	return n.LossGradAt(n.params, b, grad)
}

// LossGradAt is LossGrad at the parameter vector params, which the network
// need not own: the training forward over b and the backward from the caches
// it left, each layer handed its slice of params. The network's own
// parameters are neither read nor written, and no layer keeps anything
// derived from params past the call, so any network of the architecture
// returns the same bits for the same params and b (the engines step every
// worker of a compute slot on one network this way). params and grad must
// both have the network's parameter count; grad is zeroed first.
func (n *Network) LossGradAt(params []float64, b data.Batch, grad []float64) float64 {
	if len(params) != len(n.params) {
		panic(fmt.Sprintf("nn: params length %d != the network's %d parameters", len(params), len(n.params)))
	}
	if len(grad) != len(n.params) {
		panic(fmt.Sprintf("nn: grad length %d != the network's %d parameters", len(grad), len(n.params)))
	}
	tensor.Zero(grad)
	out := n.forward(params, b.X)
	dOut := ensureMat(&n.dOutBuf, out.Rows, out.Cols)
	lossVal := n.loss.Eval(out, b, dOut)
	cur := dOut
	for i := len(n.layers) - 1; i > 0; i-- {
		cur = n.layers[i].Backward(n.layerParams(params, i), cur, n.layerParams(grad, i))
	}
	// Layer 0's input gradient is the gradient with respect to the data.
	if first, ok := n.layers[0].(paramGrader); ok {
		first.backwardParams(n.layerParams(params, 0), cur, n.layerParams(grad, 0))
	} else {
		n.layers[0].Backward(n.layerParams(params, 0), cur, n.layerParams(grad, 0))
	}
	return lossVal
}

// Accuracy returns the fraction of batch examples whose argmax output
// matches the label, a chunk at a time. A row holding a NaN logit
// is never counted correct (every comparison against NaN is false, so a bare
// argmax would settle on class 0 and score a diverged model at about
// 1/classes); the result stays a fraction of the batch, because NaN accuracy
// already means "not measured this round" to metrics.Point. Panics for
// non-classifiers.
func (n *Network) Accuracy(b data.Batch) float64 { return n.accuracy(nil, n.params, b) }

// accuracy is Accuracy over nets at params (n alone when nets is nil).
func (n *Network) accuracy(nets []*Network, params []float64, b data.Batch) float64 {
	if n.classes == 0 {
		panic("nn: Accuracy on a non-classifier")
	}
	if len(b.Y) != b.X.Rows {
		panic("nn: Accuracy needs one label per row")
	}
	correct := 0
	n.evaluate(nets, params, b, func(out *tensor.Matrix, rows data.Batch) {
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
	})
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
