package nn

import (
	"repro/internal/data"
)

// Model zoo: constructors for the architectures used by the reproduction's
// experiments. Each returns an uninitialized Network; call InitParams.

// NewLinearRegression builds a one-layer linear model with MSE loss —
// the convex workload on which Theorem 1's constants can be estimated.
func NewLinearRegression(dim int) *Network {
	return NewNetwork(MSE{}, 0, NewDense(dim, 1))
}

// NewLogisticRegression builds a linear softmax classifier: convex, cheap,
// and the workhorse for the runtime-focused experiments where the model
// only needs a visible noise floor.
func NewLogisticRegression(dim, classes int) *Network {
	return NewNetwork(SoftmaxCrossEntropy{}, classes, NewDense(dim, classes))
}

// NewMLP builds a fully connected ReLU network with the given hidden sizes.
func NewMLP(dim int, hidden []int, classes int) *Network {
	layers := make([]Layer, 0, 2*len(hidden)+1)
	cur := dim
	for _, h := range hidden {
		layers = append(layers, NewDense(cur, h), NewReLU(h))
		cur = h
	}
	layers = append(layers, NewDense(cur, classes))
	return NewNetwork(SoftmaxCrossEntropy{}, classes, layers...)
}

// NewVGGNano builds the VGG-16 stand-in: two conv+ReLU+maxpool stages
// followed by a fully connected classifier head. Like VGG it is a plain
// feed-forward conv stack with pooling halving the resolution per stage and
// a parameter-heavy dense head — which is exactly why its communication/
// computation ratio is high (paper Fig 8): most parameters sit in cheap
// dense layers, so comm cost per step dominates compute.
func NewVGGNano(shape data.ImageShape, classes int) *Network {
	c, h, w := shape.Channels, shape.Height, shape.Width
	conv1 := NewConv2D(c, h, w, 3, 1, 1, 8)
	_, h1, w1 := conv1.OutShape()
	pool1 := NewMaxPool2x2(8, h1, w1)
	_, h1p, w1p := pool1.OutShape()
	conv2 := NewConv2D(8, h1p, w1p, 3, 1, 1, 16)
	_, h2, w2 := conv2.OutShape()
	pool2 := NewMaxPool2x2(16, h2, w2)
	_, h2p, w2p := pool2.OutShape()
	flat := 16 * h2p * w2p
	return NewNetwork(SoftmaxCrossEntropy{}, classes,
		conv1, NewReLU(conv1.OutDim()),
		pool1,
		conv2, NewReLU(conv2.OutDim()),
		pool2,
		NewDense(flat, 64), NewReLU(64),
		NewDense(64, classes),
	)
}

// NewResNetNano builds the ResNet-50 stand-in: a conv stem, two identity
// residual blocks, pooling, and a light classifier head. Like ResNet its
// compute-per-parameter is high (deep conv trunk, tiny head), which gives
// it the LOW communication/computation ratio the paper reports in Fig 8.
func NewResNetNano(shape data.ImageShape, classes int) *Network {
	c, h, w := shape.Channels, shape.Height, shape.Width
	stem := NewConv2D(c, h, w, 3, 1, 1, 8)
	_, hs, ws := stem.OutShape()

	// The four trunk convolutions have one shape: each is a clone of one
	// layer, which copies only the shape and the filter count.
	trunk := NewConv2D(8, hs, ws, 3, 1, 1, 8)
	block := func() Layer {
		return NewResidual(trunk.Clone(), NewReLU(trunk.OutDim()), trunk.Clone())
	}

	pool := NewMaxPool2x2(8, hs, ws)
	_, hp, wp := pool.OutShape()
	flat := 8 * hp * wp
	return NewNetwork(SoftmaxCrossEntropy{}, classes,
		stem, NewReLU(stem.OutDim()),
		block(), NewReLU(stem.OutDim()),
		block(), NewReLU(stem.OutDim()),
		pool,
		NewDense(flat, classes),
	)
}
