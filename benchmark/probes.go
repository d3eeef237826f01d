package main

import (
	"time"

	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/events"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Unit probes time one public function of one layer at the shapes the
// workloads use. Iteration counts are pinned (like cmd/bench), inputs come
// from a fixed seed, and each probe reports the median of three batches.
// They cost the same on every workload; the traced pass multiplies them by
// a workload's call counts to estimate a layer's share of its wall-clock.

// Probe shapes: the quick-scale VGGNano/ResNetNano input, VGGNano's second
// conv layer (the heavier of the two), and the workloads' model sizes.
var (
	probeImage = data.ImageShape{Channels: 1, Height: 8, Width: 8}
	conv2Shape = tensor.ConvShape{Channels: 8, Height: 4, Width: 4, Kernel: 3, Stride: 1, Pad: 1}
)

const (
	conv2Filters = 16
	convBatch    = 16
	wideDim      = 1024*wireClasses + wireClasses // wire_mix model
	smallDim     = fleetDim*fleetClasses + fleetClasses
)

type probe struct {
	name string
	unit string // "us" or "ns" per call
	n    int    // calls per batch at full size
	prep func(r *rng.Rand) func()
}

func randVec(r *rng.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func randMat(r *rng.Rand, rows, cols int) *tensor.Matrix {
	return &tensor.Matrix{Rows: rows, Cols: cols, Data: randVec(r, rows*cols)}
}

// zeroHalf zeroes every entry a ReLU would have: the operand pattern that
// keeps real conv training off the packed kernel.
func zeroHalf(m *tensor.Matrix) *tensor.Matrix {
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
	return m
}

func classBatch(r *rng.Rand, rows, dim, classes int) data.Batch {
	b := data.Batch{X: randMat(r, rows, dim), Y: make([]int, rows)}
	for i := range b.Y {
		b.Y[i] = r.Intn(classes)
	}
	return b
}

func lossGradProbe(name string, n int, net func() *nn.Network, rows int) probe {
	return probe{name: name, unit: "us", n: n, prep: func(r *rng.Rand) func() {
		m := net()
		m.InitParams(r.Split())
		b := classBatch(r, rows, m.InDim(), m.OutDim())
		grad := make([]float64, m.ParamLen())
		return func() { sink += m.LossGrad(b, grad) }
	}}
}

func compressProbe(name, spec string, dim, n int) probe {
	return probe{name: name, unit: "us", n: n, prep: func(r *rng.Rand) func() {
		c, err := mustSpec(spec).New(r.Split())
		if err != nil {
			panic(err)
		}
		v := randVec(r, dim)
		return func() {
			msg, err := c.Compress(v)
			if err != nil {
				panic(err)
			}
			sink += float64(msg.Bytes())
		}
	}}
}

func sparseMessages(r *rng.Rand, m, dim int) []compress.Message {
	msgs := make([]compress.Message, m)
	for i := range msgs {
		c, err := mustSpec("topk:0.25+f32").New(r.Split())
		if err != nil {
			panic(err)
		}
		if msgs[i], err = c.Compress(randVec(r, dim)); err != nil {
			panic(err)
		}
	}
	return msgs
}

func vggNano() *nn.Network    { return nn.NewVGGNano(probeImage, 10) }
func resNetNano() *nn.Network { return nn.NewResNetNano(probeImage, 10) }

var probes = []probe{
	lossGradProbe("nn.lossgrad_us.vgg", 300, vggNano, convBatch),
	lossGradProbe("nn.lossgrad_us.resnet", 60, resNetNano, convBatch),
	lossGradProbe("nn.lossgrad_us.wide", 1500, func() *nn.Network {
		return nn.NewLogisticRegression(1024, wireClasses)
	}, wireBatch),
	lossGradProbe("nn.lossgrad_us.small", 20000, func() *nn.Network {
		return nn.NewLogisticRegression(fleetDim, fleetClasses)
	}, 4),
	{name: "nn.forward_us.vgg", unit: "us", n: 20, prep: func(r *rng.Rand) func() {
		// The evaluation shape of the conv workloads: the whole 384-example
		// quick-scale training set in one forward pass.
		m := vggNano()
		m.InitParams(r.Split())
		in := randMat(r, 384, m.InDim())
		return func() { sink += m.Forward(in).Data[0] }
	}},
	{name: "nn.conv_fwd_us", unit: "us", n: 600, prep: func(r *rng.Rand) func() {
		c, params, in, _ := conv2(r)
		return func() { sink += c.Forward(params, in).Data[0] }
	}},
	{name: "nn.conv_bwd_us", unit: "us", n: 400, prep: func(r *rng.Rand) func() {
		c, params, in, dOut := conv2(r)
		c.Forward(params, in)
		dParams := make([]float64, len(params))
		return func() { sink += c.Backward(params, dOut, dParams).Data[0] }
	}},
	{name: "nn.relu_us", unit: "us", n: 20000, prep: func(r *rng.Rand) func() {
		l := nn.NewReLU(conv2Filters * 16)
		in := randMat(r, convBatch, l.InDim())
		return func() { sink += l.Forward(nil, in).Data[0] }
	}},
	{name: "nn.maxpool_us", unit: "us", n: 5000, prep: func(r *rng.Rand) func() {
		l := nn.NewMaxPool2x2(conv2Filters, 4, 4)
		in := randMat(r, convBatch, l.InDim())
		return func() { sink += l.Forward(nil, in).Data[0] }
	}},

	// tensor: the kernels behind VGGNano's second conv layer, one sample.
	{name: "tensor.gemm_dense_us", unit: "us", n: 20000, prep: func(r *rng.Rand) func() {
		a, b, c := randMat(r, 16, conv2Filters), randMat(r, conv2Filters, 72), tensor.NewMatrix(16, 72)
		return func() { tensor.Gemm(1, a, b, 0, c) }
	}},
	{name: "tensor.gemm_zero_laden_us", unit: "us", n: 20000, prep: func(r *rng.Rand) func() {
		a, b, c := zeroHalf(randMat(r, 16, conv2Filters)), randMat(r, conv2Filters, 72), tensor.NewMatrix(16, 72)
		return func() { tensor.Gemm(1, a, b, 0, c) }
	}},
	{name: "tensor.gemmtb_us", unit: "us", n: 20000, prep: func(r *rng.Rand) func() {
		a, b, c := randMat(r, 16, 72), randMat(r, conv2Filters, 72), tensor.NewMatrix(16, conv2Filters)
		return func() { tensor.GemmTB(1, a, b, 0, c) }
	}},
	{name: "tensor.gemmta_us", unit: "us", n: 20000, prep: func(r *rng.Rand) func() {
		a, b, c := randMat(r, 16, conv2Filters), randMat(r, 16, 72), tensor.NewMatrix(conv2Filters, 72)
		return func() { tensor.GemmTA(1, a, b, 1, c) }
	}},
	{name: "tensor.im2col_us", unit: "us", n: 50000, prep: func(r *rng.Rand) func() {
		img, dst := randVec(r, 8*4*4), tensor.NewMatrix(16, 72)
		return func() { tensor.Im2Col(conv2Shape, img, dst) }
	}},
	{name: "tensor.col2im_us", unit: "us", n: 50000, prep: func(r *rng.Rand) func() {
		patches, dst := randMat(r, 16, 72), make([]float64, 8*4*4)
		return func() { tensor.Col2Im(conv2Shape, patches, dst) }
	}},
	{name: "tensor.lossgrad_ops_us.vgg", unit: "us", n: 300, prep: vggTensorOps},

	{name: "opt.step_us.conv", unit: "us", n: 20000, prep: func(r *rng.Rand) func() {
		return stepProbe(r, vggNano().ParamLen())
	}},
	{name: "opt.step_us.wide", unit: "us", n: 5000, prep: func(r *rng.Rand) func() {
		return stepProbe(r, wideDim)
	}},
	{name: "data.sampler_next_us", unit: "us", n: 50000, prep: func(r *rng.Rand) func() {
		ds := data.SynthImages(data.SynthImagesConfig{Classes: 10, Shape: probeImage, N: 96, Noise: 0.8}, r)
		s := data.NewSampler(ds, convBatch, r.Split())
		return func() { sink += s.Next().X.Data[0] }
	}},

	compressProbe("compress.topk_us", "topk:0.25+f32", wideDim, 60),
	compressProbe("compress.topk_ef_us", "topk:0.25+ef", wideDim, 60),
	compressProbe("compress.qsgd_us", "qsgd:4", wideDim, 100),
	compressProbe("compress.topk_ef_small_us", "topk:0.1+ef", smallDim, 3000),
	compressProbe("compress.qsgd_small_us", "qsgd:4+f32", smallDim, 3000),
	{name: "compress.decode_us", unit: "us", n: 2000, prep: func(r *rng.Rand) func() {
		msg, dst := sparseMessages(r, 1, wideDim)[0], make([]float64, wideDim)
		return func() {
			if err := compress.Decode(msg, dst); err != nil {
				panic(err)
			}
		}
	}},

	{name: "comm.allreduce_dense_us", unit: "us", n: 200, prep: func(r *rng.Rand) func() {
		msgs := make([]compress.Message, wireWorkers)
		for i := range msgs {
			msgs[i] = compress.Message{Dim: wideDim, Enc: compress.EncDense, Dense: randVec(r, wideDim)}
		}
		return allReduce(msgs)
	}},
	{name: "comm.allreduce_sparse_us", unit: "us", n: 200, prep: func(r *rng.Rand) func() {
		return allReduce(sparseMessages(r, wireWorkers, wideDim))
	}},
	{name: "comm.pushmulti_us", unit: "us", n: 2000, prep: func(r *rng.Rand) func() {
		c := comm.New(mustTopology("torus:4x4"), wireWorkers)
		msg, dst := sparseMessages(r, 1, wideDim)[0], make([]float64, wideDim)
		peers := graph.Torus(4, 4).Neighbors(0)
		return func() {
			if _, err := c.PushMulti(0, peers, msg, dst); err != nil {
				panic(err)
			}
		}
	}},

	{name: "graph.torus_build_us", unit: "us", n: 200, prep: func(*rng.Rand) func() {
		return func() { sink += graph.Torus(4, 4).SpectralGap() }
	}},
	{name: "graph.subgraph_us", unit: "us", n: 200, prep: func(*rng.Rand) func() {
		g := graph.Torus(4, 4)
		active := make([]bool, wireWorkers)
		for i := range active {
			active[i] = i != 3
		}
		return func() { sink += g.Subgraph(active).SpectralGap() }
	}},

	{name: "delaymodel.schedule_us", unit: "us", n: 50000, prep: func(r *rng.Rand) func() {
		dm, bytes, times := wireDelay(), wireBytes(), make([]float64, wireWorkers)
		return func() { sink += dm.SampleDScheduleInto(r, bytes, 1, 1, times) }
	}},
	{name: "delaymodel.edge_schedule_us", unit: "us", n: 20000, prep: func(r *rng.Rand) func() {
		dm, bytes, times := wireDelay(), wireBytes(), make([]float64, wireWorkers)
		dm.EdgeLinks = map[delaymodel.Edge]delaymodel.Link{
			{From: 0, To: 1}: {Latency: 0.5}, {From: 1, To: 0}: {Latency: 0.5},
		}
		adj := graph.Torus(4, 4).Adjacency()
		return func() { sink += dm.SampleDEdgeScheduleInto(r, bytes, adj, 1, 1, times) }
	}},
	{name: "delaymodel.transfer_us", unit: "us", n: 200000, prep: func(r *rng.Rand) func() {
		dm := wireDelay()
		return func() { sink += dm.SampleTransfer(r, 3, 4*smallDim) }
	}},

	{name: "events.pushpop_ns", unit: "ns", n: 200000, prep: func(r *rng.Rand) func() {
		// A queue holding async_fleet's in-flight set; each call retires the
		// earliest event and schedules its successor.
		q := events.NewQueue(r.Uint64())
		for i := 0; i < asyncInFlight; i++ {
			q.Push(events.Event{Time: r.Float64(), Worker: i, Kind: events.Arrival})
		}
		return func() {
			e, _ := q.Pop()
			e.Time += r.Float64()
			q.Push(e)
		}
	}},
	{name: "faults.query_ns", unit: "ns", n: 200000, prep: func(*rng.Rand) func() {
		f := mustFaults(fleetFaults)
		i := 0
		return func() {
			i++
			if f.Down(i%psWorkers, i%512) {
				sink++
			}
			sink += f.LinkScale(i%psWorkers, i%512) + float64(f.Retries(7, i%512, i%psWorkers))
		}
	}},
}

func conv2(r *rng.Rand) (c *nn.Conv2D, params []float64, in, dOut *tensor.Matrix) {
	c = nn.NewConv2D(conv2Shape.Channels, conv2Shape.Height, conv2Shape.Width, 3, 1, 1, conv2Filters)
	params = make([]float64, c.ParamLen())
	c.Init(params, r.Split())
	// Post-ReLU activations in, post-ReLU gradients back: both carry the
	// exact zeros real training has.
	return c, params, zeroHalf(randMat(r, convBatch, c.InDim())), zeroHalf(randMat(r, convBatch, c.OutDim()))
}

func stepProbe(r *rng.Rand, dim int) func() {
	o := opt.New(opt.Config{}, dim)
	o.SetLR(0.01)
	params, grad := randVec(r, dim), randVec(r, dim)
	return func() { o.Step(params, grad) }
}

func allReduce(msgs []compress.Message) func() {
	c := comm.New(comm.AllGather, len(msgs))
	sum := make([]float64, msgs[0].Dim)
	return func() {
		rep, err := c.AllReduce(msgs, sum)
		if err != nil {
			panic(err)
		}
		sink += float64(rep.Max)
	}
}

func wireDelay() *delaymodel.Model {
	return delaymodel.FederatedProfile(1, 65536).Model(wireWorkers, delaymodel.ConstantScaling{})
}

func wireBytes() []int {
	b := make([]int, wireWorkers)
	for i := range b {
		b[i] = mustSpec("topk:0.25+f32").WireBytes(wideDim)
	}
	return b
}

// vggTensorOps issues exactly the tensor-kernel calls of one VGGNano
// LossGrad at batch 16 on the quick-scale 1x8x8 input: per sample the
// im2col/GemmTB of each conv forward and the GemmTA/Gemm/col2im of each
// conv backward, then the two dense layers once per batch. It is what
// tensor.est_share multiplies by the step count.
func vggTensorOps(r *rng.Rand) func() {
	type convOps struct {
		shape                   tensor.ConvShape
		img, dIn                []float64
		patches, w, prod, dProd *tensor.Matrix
		dW, dPatches            *tensor.Matrix
	}
	mk := func(s tensor.ConvShape, filters int) convOps {
		p, pl := s.OutHeight()*s.OutWidth(), s.PatchLen()
		return convOps{
			shape: s, img: randVec(r, s.Channels*s.Height*s.Width), dIn: make([]float64, s.Channels*s.Height*s.Width),
			patches: tensor.NewMatrix(p, pl), w: randMat(r, filters, pl), prod: tensor.NewMatrix(p, filters),
			dProd: zeroHalf(randMat(r, p, filters)), dW: tensor.NewMatrix(filters, pl), dPatches: tensor.NewMatrix(p, pl),
		}
	}
	convs := []convOps{
		mk(tensor.ConvShape{Channels: 1, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 1}, 8),
		mk(conv2Shape, conv2Filters),
	}
	type denseOps struct{ in, w, out, dOut, dW, dIn *tensor.Matrix }
	mkDense := func(in, out int) denseOps {
		return denseOps{
			in: zeroHalf(randMat(r, convBatch, in)), w: randMat(r, out, in), out: tensor.NewMatrix(convBatch, out),
			dOut: randMat(r, convBatch, out), dW: tensor.NewMatrix(out, in), dIn: tensor.NewMatrix(convBatch, in),
		}
	}
	denses := []denseOps{mkDense(64, 64), mkDense(64, 10)}
	return func() {
		for _, c := range convs {
			for i := 0; i < convBatch; i++ {
				tensor.Im2Col(c.shape, c.img, c.patches)
				tensor.GemmTB(1, c.patches, c.w, 0, c.prod)
				tensor.GemmTA(1, c.dProd, c.patches, 1, c.dW)
				tensor.Gemm(1, c.dProd, c.w, 0, c.dPatches)
				tensor.Col2Im(c.shape, c.dPatches, c.dIn)
			}
		}
		for _, d := range denses {
			tensor.GemmTB(1, d.in, d.w, 0, d.out)
			tensor.GemmTA(1, d.dOut, d.in, 1, d.dW)
			tensor.Gemm(1, d.dOut, d.w, 0, d.dIn)
		}
	}
}

// runProbe returns the probe's cost per call, in its own unit: the median
// of three batches of n calls after one warm-up call.
func runProbe(p probe, scale float64) float64 {
	n := max(int(float64(p.n)*scale), 1)
	call := p.prep(rng.New(12345))
	call()
	var per [3]float64
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			call()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	ns := median(per[:])
	if p.unit == "us" {
		return ns / 1e3
	}
	return ns
}

// runProbes times every unit probe, plus the two derived numbers that need
// more than one timing.
func runProbes(sz sizes) map[string]float64 {
	out := map[string]float64{}
	for _, p := range probes {
		out[p.name] = runProbe(p, sz.probeScale)
	}

	// What a top-k + float32 message costs on the wire against the dense
	// vector it stands for.
	msg := sparseMessages(rng.New(12345), 1, wideDim)[0]
	out["compress.bytes_ratio"] = float64(msg.Bytes()) / float64(8*wideDim)

	// One 256x256 Gemm fanned across P kernel workers against one. The
	// conv-sized operands above never reach the fan-out threshold.
	gemm := probe{name: "gemm256", unit: "us", n: 30, prep: func(r *rng.Rand) func() {
		a, b, c := randMat(r, 256, 256), randMat(r, 256, 256), tensor.NewMatrix(256, 256)
		return func() { tensor.Gemm(1, a, b, 0, c) }
	}}
	prev := tensor.SetWorkers(1)
	serial := runProbe(gemm, sz.probeScale)
	tensor.SetWorkers(poolWidth())
	out["tensor.gemm_par_speedup"] = serial / runProbe(gemm, sz.probeScale)
	tensor.SetWorkers(prev)
	return out
}
