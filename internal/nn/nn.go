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
package nn

import (
	"fmt"

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
	// the loss as NaN, not be laundered into a finite value on the way
	// (ReLU passes NaN through where a bare `v > 0` test would clamp it to
	// 0). MaxPool2x2 is a comparison, not elementwise: a NaN that is not
	// first in its window loses to any number.
	Forward(params []float64, in *tensor.Matrix) *tensor.Matrix
	// Backward consumes the gradient w.r.t. the layer output, accumulates
	// the parameter gradient into dParams (length ParamLen, NOT zeroed),
	// and returns the gradient w.r.t. the layer input.
	Backward(params []float64, dOut *tensor.Matrix, dParams []float64) *tensor.Matrix
	// Clone returns a fresh layer with identical configuration and empty
	// caches. Parameters live outside the layer, so Clone is cheap.
	Clone() Layer
}

// Loss maps network outputs and batch targets to a scalar mean loss and,
// optionally, the gradient w.r.t. the outputs.
type Loss interface {
	// Eval returns the mean loss over the batch. If dOut is non-nil it is
	// filled with d(meanLoss)/d(out).
	Eval(out *tensor.Matrix, b data.Batch, dOut *tensor.Matrix) float64
	// Name identifies the loss in logs.
	Name() string
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

// Forward runs the batch through all layers and returns the outputs.
func (n *Network) Forward(in *tensor.Matrix) *tensor.Matrix {
	cur := in
	for i, l := range n.layers {
		cur = l.Forward(n.layerParams(i), cur)
	}
	return cur
}

// Loss evaluates the mean loss on the batch without computing gradients.
func (n *Network) Loss(b data.Batch) float64 {
	out := n.Forward(b.X)
	return n.loss.Eval(out, b, nil)
}

// LossGrad evaluates the mean loss and fills grad (length ParamLen) with
// its gradient. grad is zeroed first.
func (n *Network) LossGrad(b data.Batch, grad []float64) float64 {
	if len(grad) != len(n.params) {
		panic(fmt.Sprintf("nn: grad length %d != params %d", len(grad), len(n.params)))
	}
	tensor.Zero(grad)
	out := n.Forward(b.X)
	dOut := ensureMat(&n.dOutBuf, out.Rows, out.Cols)
	lossVal := n.loss.Eval(out, b, dOut)
	cur := dOut
	for i := len(n.layers) - 1; i >= 0; i-- {
		cur = n.layers[i].Backward(n.layerParams(i),
			cur, grad[n.offsets[i]:n.offsets[i]+n.layers[i].ParamLen()])
	}
	return lossVal
}

// Accuracy returns the fraction of batch examples whose argmax output
// matches the label. Panics for non-classifiers.
func (n *Network) Accuracy(b data.Batch) float64 {
	if n.classes == 0 {
		panic("nn: Accuracy on a non-classifier")
	}
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
		if best == b.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(out.Rows)
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

// LossName reports the loss function identifier.
func (n *Network) LossName() string { return n.loss.Name() }

// NumLayers returns the number of layers (for introspection in tests).
func (n *Network) NumLayers() int { return len(n.layers) }
