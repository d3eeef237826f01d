// Command bench checks that the AVX2 kernels of internal/tensor still earn
// their keep: each kernel path is timed beside the scalar code it replaced,
// in the same run, and must beat it by the floor of its pair (gate.go). No
// baseline file is read, so the verdict does not drift with the host.
//
// Usage:
//
//	bench                      # time the thirteen pairs, print them
//	bench -out FILE.json       # also write the timings as JSON
//
// The exit status is the verdict: 0 when every pair is at or above its
// floor, 1 when one is not (each violation is one line naming the kernel
// tier that ran), 2 on usage errors. The JSON record is information only:
// ns/op on this host, next to the host shape (cores, GOMAXPROCS, kernel
// tier) those numbers depend on. End-to-end time is measured by the
// benchmark module (benchmark/), allocation counts by the AllocsPerRun tests
// of each package.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"sort"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Result is one row's measurement: the fastest per-call time any sampling
// round saw.
type Result struct {
	NsPerOp float64 `json:"ns_per_op"`
}

// Record is the JSON document -out writes.
type Record struct {
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Kernels    string            `json:"kernels"` // tensor.Kernels(): the tier the rows ran on
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Each setup builds one row of a pair: kernel true times the path that runs
// on the AVX2 kernels, false the scalar reference it replaced, on the same
// inputs.

// gemm256Setup is a dense (no exact zeros, so the naive kernel's zero-skip
// never fires) 256x256x256 product, through the blocked kernel or the
// retained naive reference.
func gemm256Setup(kernel bool) func() {
	const n = 256
	a := tensor.NewMatrix(n, n)
	b := tensor.NewMatrix(n, n)
	c := tensor.NewMatrix(n, n)
	r := rng.New(21)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64() + 2
		b.Data[i] = r.NormFloat64()
	}
	if kernel {
		return func() { tensor.Gemm(1, a, b, 0, c) }
	}
	return func() { tensor.GemmNaive(1, a, b, 0, c) }
}

// zeroLaden fills m with normals, zeroFrac of them replaced by exact zeros.
func zeroLaden(r *rng.Rand, m *tensor.Matrix, zeroFrac float64) *tensor.Matrix {
	for i := range m.Data {
		if m.Data[i] = r.NormFloat64(); r.Float64() < zeroFrac {
			m.Data[i] = 0
		}
	}
	return m
}

// gemmTBTrunkSetup is a ResNetNano trunk conv's forward for one sample, 8
// filters over 64 positions of 72-long patches: 147k of the net's 152k
// forward multiply-adds per sample go through this shape, in training and in
// evaluation alike. The dot form skips no zero, so the post-ReLU zeros cost
// the naive reference what they cost the tile.
func gemmTBTrunkSetup(kernel bool) func() {
	r := rng.New(35)
	w := zeroLaden(r, tensor.NewMatrix(8, 72), 0)
	x := zeroLaden(r, tensor.NewMatrix(64, 72), 0.5) // post-ReLU patches
	out := tensor.NewMatrix(8, 64)
	if kernel {
		return func() { tensor.GemmTB(1, w, x, 0, out) }
	}
	return func() { tensor.GemmTBNaive(1, w, x, 0, out) }
}

// qsgdSetup quantizes wire_mix's 16 400 coordinates at 4 bits: into one
// recycled message the way the engines do, or by the scalar quantizer
// compress shipped before internal/tensor's kernels, one Float64 call per
// coordinate, from the same stream. Both cycle 64 Gaussian inputs: a kernel
// fed one fixed vector trains the branch predictor on a pattern no run
// repeats.
func qsgdSetup(kernel bool) func() {
	const dim, bits = 16400, 4
	r := rng.New(41)
	vecs := make([][]float64, 64)
	for i := range vecs {
		vecs[i] = make([]float64, dim)
		for j := range vecs[i] {
			vecs[i][j] = r.NormFloat64()
		}
	}
	i := 0
	if kernel {
		c, err := compress.Spec{Kind: compress.KindQSGD, Bits: bits}.New(rng.New(42))
		if err != nil {
			panic(err)
		}
		msg := new(compress.Message) // heap storage: &local would escape per call
		return func() {
			c.CompressInto(vecs[i%len(vecs)], msg)
			i++
		}
	}
	draws := rng.New(42)
	levels := make([]int16, dim)
	s := float64(int(1)<<bits - 1)
	return func() {
		vec := vecs[i%len(vecs)]
		i++
		norm := 0.0
		for _, v := range vec {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		for j, v := range vec {
			a := math.Abs(v) / norm * s
			l := math.Floor(a)
			if draws.Float64() < a-l {
				l++
			}
			lv := int16(l)
			if v < 0 {
				lv = -lv
			}
			levels[j] = lv
		}
	}
}

// normSetup draws 1 024 standard normals into one buffer: through
// FillNormFloat64, or by the NormFloat64 calls it replaces in the generators
// and initialisers — the same stream either way.
func normSetup(kernel bool) func() {
	r := rng.New(61)
	dst := make([]float64, 1024)
	if kernel {
		return func() { r.FillNormFloat64(dst) }
	}
	return func() {
		for i := range dst {
			dst[i] = r.NormFloat64()
		}
	}
}

// fillSetup draws async_fleet's 650 QSGD rounding uniforms into one buffer:
// through FillFloat64, or by the Go loop it ran before the kernel, written out
// here on a state of its own — the same stream either way.
func fillSetup(kernel bool) func() {
	dst := make([]float64, 650)
	if kernel {
		r := rng.New(62)
		return func() { r.FillFloat64(dst) }
	}
	s := [4]uint64{1, 2, 3, 4}
	return func() {
		s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
		for i := range dst {
			x := bits.RotateLeft64(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = bits.RotateLeft64(s3, 45)
			dst[i] = float64(x>>11) / (1 << 53)
		}
		s = [4]uint64{s0, s1, s2, s3}
	}
}

// gemmTAHeadSetup is the 10-class head's weight gradient at the logistic
// workloads' shape, dW += dOut^T * X over a batch of four (10x64 from k = 4):
// through GemmTA, or by the per-row list path it ran before, written out —
// per C row the non-zero coefficients listed, then the row updated from the
// listed B rows, four columns per coefficient load.
func gemmTAHeadSetup(kernel bool) func() {
	r := rng.New(71)
	dOut := zeroLaden(r, tensor.NewMatrix(4, 10), 0)
	x := zeroLaden(r, tensor.NewMatrix(4, 64), 0)
	dW := tensor.NewMatrix(10, 64)
	if kernel {
		return func() { tensor.GemmTA(1, dOut, x, 1, dW) }
	}
	var off [4]int
	var val [4]float64
	return func() {
		for i := 0; i < dW.Rows; i++ {
			nnz := 0
			for k := 0; k < dOut.Rows; k++ {
				if v := dOut.Data[k*dOut.Cols+i]; v != 0 {
					off[nnz], val[nnz] = k*x.Cols, v
					nnz++
				}
			}
			crow := dW.Row(i)
			for j := 0; j+4 <= len(crow); j += 4 {
				cs := crow[j : j+4 : j+4]
				s0, s1, s2, s3 := cs[0], cs[1], cs[2], cs[3]
				for t, v := range val[:nnz] {
					bs := x.Data[off[t]+j : off[t]+j+4 : off[t]+j+4]
					s0 += v * bs[0]
					s1 += v * bs[1]
					s2 += v * bs[2]
					s3 += v * bs[3]
				}
				cs[0], cs[1], cs[2], cs[3] = s0, s1, s2, s3
			}
		}
	}
}

// softmaxSetup is the loss and gradient of one training batch at the
// logistic workloads' shape, four rows of ten classes: through
// nn.SoftmaxCrossEntropy, or by the scalar loop it ran before, written out —
// per row the maximum, the exps summed, one math.Log, the gradient's exps.
func softmaxSetup(kernel bool) func() {
	r := rng.New(63)
	out, dOut := tensor.NewMatrix(4, 10), tensor.NewMatrix(4, 10)
	b := data.Batch{Y: make([]int, 4)}
	for i := range out.Data {
		out.Data[i] = r.NormFloat64() * 4
	}
	for i := range b.Y {
		b.Y[i] = r.Intn(10)
	}
	if kernel {
		return func() { nn.SoftmaxCrossEntropy{}.Eval(out, b, dOut) }
	}
	return func() {
		const invB = 1.0 / 4
		total := 0.0
		for i := 0; i < out.Rows; i++ {
			row, d := out.Row(i), dOut.Row(i)
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
			for j, v := range row {
				d[j] = math.Exp(v-logZ) * invB
			}
			d[b.Y[i]] -= invB
		}
		sink = total * invB
	}
}

// sink keeps the reference loop's loss live, as Eval's result is.
var sink float64

// axpySetup is plain SGD's step and the async aggregate at the logistic
// workloads' 650 parameters: through Axpy, or by the scalar loop it replaces.
func axpySetup(kernel bool) func() {
	r := rng.New(64)
	x, y := make([]float64, 650), make([]float64, 650)
	for i := range x {
		x[i], y[i] = r.NormFloat64(), r.NormFloat64()
	}
	const alpha = -1e-3
	if kernel {
		return func() { tensor.Axpy(alpha, x, y) }
	}
	return func() {
		for i, v := range x {
			y[i] += alpha * v
		}
	}
}

// convolveSetup is one ResNetNano trunk conv's forward for one sample, 8
// filters over 8 channels of 8x8 under a 3x3 kernel with padding 1, on a
// post-ReLU input, with the ReLU that follows it folded in: through
// Convolve, or by the lowered product and the separate ReLU it replaces,
// written out — Lower into the 64x72 patches matrix, one GemmTB, the bias
// loop, tensor.ReLU over the output.
func convolveSetup(kernel bool) func() {
	s := tensor.ConvShape{Channels: 8, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 1}
	r := rng.New(68)
	img := zeroLaden(r, tensor.NewMatrix(1, s.Channels*s.Height*s.Width), 0.5).Data
	w := zeroLaden(r, tensor.NewMatrix(8, s.PatchLen()), 0)
	bias := zeroLaden(r, tensor.NewMatrix(1, 8), 0).Data
	pad := make([]float64, s.PadLen())
	x := tensor.NewMatrix(s.OutHeight()*s.OutWidth(), s.PatchLen())
	out := tensor.NewMatrix(8, s.OutHeight()*s.OutWidth())
	if kernel {
		return func() { tensor.Convolve(s, w, bias, img, pad, x, out.Data, true) }
	}
	return func() {
		tensor.Lower(s, img, pad, x)
		tensor.GemmTB(1, w, x, 0, out)
		for f, b := range bias {
			row := out.Row(f)
			for pos := range row {
				row[pos] += b
			}
		}
		tensor.ReLU(out.Data, out.Data)
	}
}

// convBackSetup is one ResNetNano trunk conv's backward for one batch of 16
// samples, 8 filters over 8 channels of 8x8 under a 3x3 kernel with padding
// 1, through the ReLU folded into it: the output half +0 and the incoming
// gradient 46% exact zeros, so the masked G is 73% zeros (the trunk's share
// in conv_pasgd), the inputs post-ReLU. Through tensor.ConvGrad (one Load,
// then a Sample per sample, masking as it lists), or by the separate
// ReLUGrad and the lowered backward it replaces, written out — per sample
// tensor.ReLUGrad into G, G's row sums into dB, Lower into the 64x72
// patches matrix, Gemm into dW, GemmTA into the patch gradients, Raise into
// the input gradient.
func convBackSetup(kernel bool) func() {
	const batch = 16
	s := tensor.ConvShape{Channels: 8, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 1}
	p, l, nIn := s.OutHeight()*s.OutWidth(), s.PatchLen(), s.Channels*s.Height*s.Width
	r := rng.New(70)
	imgs := zeroLaden(r, tensor.NewMatrix(batch, nIn), 0.5)
	grads := zeroLaden(r, tensor.NewMatrix(batch, 8*p), 0.46)
	outs := zeroLaden(r, tensor.NewMatrix(batch, 8*p), 0.5)
	w := zeroLaden(r, tensor.NewMatrix(8, l), 0)
	dW, dB := tensor.NewMatrix(8, l), make([]float64, 8)
	dIn := tensor.NewMatrix(batch, nIn)
	pad := make([]float64, s.PadLen())
	x, dx := tensor.NewMatrix(p, l), tensor.NewMatrix(p, l)
	if kernel {
		var cg tensor.ConvGrad
		return func() {
			cg.Load(s, w, true)
			for i := 0; i < batch; i++ {
				cg.Sample(grads.Row(i), outs.Row(i), imgs.Row(i), pad, x, dW, dB, dIn.Row(i))
			}
		}
	}
	dPad := make([]float64, s.PadLen())
	g := tensor.NewMatrix(8, p)
	return func() {
		for i := 0; i < batch; i++ {
			tensor.ReLUGrad(g.Data, grads.Row(i), outs.Row(i))
			for f := 0; f < 8; f += 4 { // four rows' sums at a time, as nn summed them
				r0, r1, r2, r3 := g.Row(f), g.Row(f+1), g.Row(f+2), g.Row(f+3)
				s0, s1, s2, s3 := dB[f], dB[f+1], dB[f+2], dB[f+3]
				for j, v := range r0 {
					s0 += v
					s1 += r1[j]
					s2 += r2[j]
					s3 += r3[j]
				}
				dB[f], dB[f+1], dB[f+2], dB[f+3] = s0, s1, s2, s3
			}
			tensor.Lower(s, imgs.Row(i), pad, x)
			tensor.Gemm(1, g, x, 1, dW)
			tensor.GemmTA(1, g, w, 0, dx)
			tensor.Raise(s, dx, dPad, dIn.Row(i))
		}
	}
}

// maxPoolSetup pools the ResNetNano trunk's output, 8 channels of 8x8 after
// ReLU, into 8 of 4x4 with each window's argmax: through MaxPool, or by the
// Go loop it runs off the AVX2 tier, written out — a branch-free
// greater-than pick per window slot, in the window's row-major order.
func maxPoolSetup(kernel bool) func() {
	const width = 8
	r := rng.New(69)
	src := zeroLaden(r, tensor.NewMatrix(1, 8*8*8), 0.5).Data
	dst, argmax := make([]float64, len(src)/4), make([]int, len(src)/4)
	if kernel {
		return func() { tensor.MaxPool(src, width, dst, argmax) }
	}
	pick := func(best float64, at int, v float64, vAt int) (float64, int) {
		var take uint64
		if v > best {
			take = 1
		}
		take = -take
		b, vb := math.Float64bits(best), math.Float64bits(v)
		return math.Float64frombits(b ^ (b^vb)&take), at ^ (at^vAt)&int(take)
	}
	return func() {
		p, rowEnd := 0, width
		for o := range dst {
			best, at := pick(src[p], p, src[p+1], p+1)
			best, at = pick(best, at, src[p+width], p+width)
			dst[o], argmax[o] = pick(best, at, src[p+width+1], p+width+1)
			if p += 2; p == rowEnd {
				p += width
				rowEnd += 2 * width
			}
		}
	}
}

// keepSetup is top-k's second pass at ps_adasync's shape, 650 coordinates
// at ratio 0.1, k = 65: the indices of the coordinates at or above the first
// digit of the 65th largest magnitude, into a list four longer than the
// longest such list, as top-k sizes it; through KeepFrom, or by the Go loop
// it runs off the AVX2 tier, written out. Both cycle sixteen Gaussian
// inputs, each with its own digit.
func keepSetup(kernel bool) func() {
	const dim, k, shift = 650, 65, 63 - tensor.DigitBits
	r := rng.New(66)
	vecs := make([][]float64, 16)
	digits := make([]uint64, len(vecs))
	most := 0
	for i := range vecs {
		vecs[i] = make([]float64, dim)
		pats := make([]uint64, dim)
		for j := range vecs[i] {
			vecs[i][j] = r.NormFloat64()
			pats[j] = math.Float64bits(math.Abs(vecs[i][j]))
		}
		slices.Sort(pats)
		digits[i] = pats[dim-k] >> shift
		most = max(most, dim-sort.Search(dim, func(j int) bool { return pats[j]>>shift >= digits[i] }))
	}
	at := make([]int32, most+4)
	i := 0
	if kernel {
		return func() {
			tensor.KeepFrom(at, vecs[i%len(vecs)], digits[i%len(vecs)])
			i++
		}
	}
	return func() {
		vec, lo := vecs[i%len(vecs)], digits[i%len(vecs)]<<shift
		i++
		n := 0
		for j, v := range vec {
			at[n] = int32(j)
			n += int((math.Float64bits(v)&(1<<63-1)-lo)>>63) ^ 1
		}
	}
}

// mixSetup is CHOCO's mix at wire_mix's headline shape: one node's uniform
// row of the 4x4 torus, five estimates of 16 400 coordinates, into the
// post-mix replica and the projected estimate; through ChocoMix, or by the
// Go loop it runs off the AVX2 tier, written out — the ordered sum, one
// division, then one pass for both outputs. Both take the sixteen nodes in
// turn, as a gossip round does.
func mixSetup(kernel bool) func() {
	const m, dim, gamma = 16, 16400, 0.5
	g := graph.Torus(4, 4)
	r := rng.New(67)
	hat, xs := make([]float64, m*dim), make([]float64, m*dim)
	for i := range hat {
		hat[i], xs[i] = r.NormFloat64(), r.NormFloat64()
	}
	post, prj := make([]float64, dim), make([]float64, dim)
	node := 0
	if kernel {
		return func() {
			x := xs[node*dim:][:dim]
			tensor.ChocoMix(post, prj, x, hat, node, g.MixOrder(node), g.MixWeights(node), gamma)
			node = (node + 1) % m
		}
	}
	return func() {
		order, x, hs := g.MixOrder(node), xs[node*dim:][:dim], hat[node*dim:][:dim]
		copy(post, hat[order[0]*dim:][:dim])
		for _, o := range order[1:] {
			src := hat[o*dim:][:dim]
			for j := range post {
				post[j] += src[j]
			}
		}
		count := float64(len(order))
		for j := range post {
			post[j] /= count
		}
		for j, mix := range post {
			prj[j] = gamma*mix + (hs[j] - gamma*hs[j])
			post[j] = gamma*mix + (x[j] - gamma*hs[j])
		}
		node = (node + 1) % m
	}
}

func main() {
	out := flag.String("out", "", "also write the timings here as JSON (information only)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	rec := Record{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernels:    tensor.Kernels(),
		Benchmarks: map[string]Result{},
	}
	fmt.Printf("bench: %s/%s, %d CPUs, GOMAXPROCS %d, %s kernels\n",
		rec.GOOS, rec.GOARCH, rec.NumCPU, rec.GOMAXPROCS, rec.Kernels)
	for _, p := range ratioPairs {
		fast, ref := p.sample()
		rec.Benchmarks[p.fast], rec.Benchmarks[p.ref] = fast, ref
		fmt.Printf("%-24s %10.0f ns/op  %-20s %10.0f ns/op  %5.2fx (floor %g)\n",
			p.fast, fast.NsPerOp, p.ref, ref.NsPerOp, ref.NsPerOp/fast.NsPerOp, p.floor)
	}

	if *out != "" {
		enc, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(enc, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if violations := checkRatios(rec.Benchmarks, rec.Kernels); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "bench: %s\n", v)
		}
		os.Exit(1)
	}
}
