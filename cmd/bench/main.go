// Command bench checks that the AVX2 kernels of internal/tensor still earn
// their keep: each kernel path is timed beside the scalar code it replaced,
// in the same run, and must beat it by the floor of its pair (gate.go). No
// baseline file is read, so the verdict does not drift with the host.
//
// Usage:
//
//	bench                      # time the nine pairs, print them
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
	"os"
	"runtime"
	"slices"

	"repro/internal/compress"
	"repro/internal/graph"
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
			if err := c.CompressInto(vecs[i%len(vecs)], msg); err != nil {
				panic(err)
			}
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

// expSetup takes the exps of one softmax block at the logistic workloads'
// shape — four rows of ten classes, each logit less its row's maximum —
// through ExpInto, or by the math.Exp calls it replaces.
func expSetup(kernel bool) func() {
	r := rng.New(63)
	src, dst := make([]float64, 40), make([]float64, 40)
	for i := range src {
		src[i] = -math.Abs(r.NormFloat64() * 4)
	}
	if kernel {
		return func() { tensor.ExpInto(dst, src) }
	}
	return func() {
		for i, v := range src {
			dst[i] = math.Exp(v)
		}
	}
}

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

// lowerSetup lowers one ResNetNano trunk conv's input, 8 channels of 8x8
// under a 3x3 kernel with padding 1, into its 64x72 patches matrix: through
// Lower, or by the Go loop Lower runs off the AVX2 tier, written out — the
// same copy into a zero-bordered image, then one run of three per channel
// and kernel row of every patch.
func lowerSetup(kernel bool) func() {
	s := tensor.ConvShape{Channels: 8, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 1}
	r := rng.New(65)
	img := make([]float64, s.Channels*s.Height*s.Width)
	for i := range img {
		img[i] = r.NormFloat64()
	}
	pad := make([]float64, s.PadLen())
	dst := tensor.NewMatrix(s.OutHeight()*s.OutWidth(), s.PatchLen())
	if kernel {
		return func() { tensor.Lower(s, img, pad, dst) }
	}
	h, w, k := s.Height, s.Width, s.Kernel
	hp, wp := h+2*s.Pad, w+2*s.Pad
	return func() {
		for c := 0; c < s.Channels; c++ {
			for y := 0; y < h; y++ {
				copy(pad[(c*hp+y+s.Pad)*wp+s.Pad:][:w], img[(c*h+y)*w:])
			}
		}
		o := 0
		for oy := 0; oy < s.OutHeight(); oy++ {
			for ox := 0; ox < s.OutWidth(); ox++ {
				for c := 0; c < s.Channels; c++ {
					for ky := 0; ky < k; ky++ {
						at := (c*hp+oy+ky)*wp + ox
						run := dst.Data[o : o+k : o+k]
						for kx, v := range pad[at : at+k] {
							run[kx] = v
						}
						o += k
					}
				}
			}
		}
	}
}

// emitSetup is top-k's emission at wire_mix's shape, 16 400 coordinates at
// ratio 0.25: the coordinates above the 4 100th largest magnitude as (index,
// value) pairs, through EmitAbove, or by the Go loop it runs off the AVX2
// tier, written out. Both cycle four Gaussian inputs, each with its own
// threshold, small enough to stay in cache like a worker's vector.
func emitSetup(kernel bool) func() {
	const dim, k = 16400, 4100
	r := rng.New(66)
	vecs := make([][]float64, 4)
	threshs := make([]uint64, len(vecs))
	for i := range vecs {
		vecs[i] = make([]float64, dim)
		keys := make([]uint64, dim)
		for j := range vecs[i] {
			vecs[i][j] = r.NormFloat64()
			keys[j] = math.Float64bits(math.Abs(vecs[i][j]))
		}
		slices.Sort(keys)
		threshs[i] = keys[dim-k]
	}
	idx, vals := make([]int32, k), make([]float64, k)
	i := 0
	if kernel {
		return func() {
			tensor.EmitAbove(idx, vals, vecs[i%len(vecs)], threshs[i%len(vecs)])
			i++
		}
	}
	return func() {
		vec, thresh := vecs[i%len(vecs)], threshs[i%len(vecs)]
		i++
		n := 0
		for j, v := range vec {
			idx[n] = int32(j)
			vals[n] = v
			n += int((thresh - math.Float64bits(v)&(1<<63-1)) >> 63)
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
