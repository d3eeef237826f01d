package main

import (
	"fmt"
	"math"
	"time"
)

// ratioPair is one intra-run margin: a kernel row that runs on the AVX2
// kernels must beat, by floor, the scalar reference row timed beside it in
// the SAME run. No baseline is involved, so the check cannot drift with the
// recording host — and it trips if the dispatch silently stops choosing the
// kernels. A floor sits between what the two tiers measure, with headroom for
// jitter on either side, which is why a violation names the tier that ran.
type ratioPair struct {
	fast, ref string
	floor     float64
	// calls per sampling round: enough that a round outlasts the timer's
	// grain, few enough that the Gemm-256 pair stays cheap.
	calls int
	setup func(kernel bool) func() // true: the fast row, false: the reference
}

// ratioPairs are the thirteen margins. Retired pairs: ExpInto's (the softmax
// and head-gradient pairs replaced it) and Lower's, which went with its kernel.
//
// Gemm-256: the AVX2 axpy kernel measures 3.9-5.7x over the retained naive
// reference (naive scalar code is pinned at one multiply-add per cycle; the
// packed kernel retires four per instruction); the Go loops 1.1-1.7x on a
// dense product, a range that follows GemmNaive's code alignment (a 160-byte
// layout shift once moved it from 1.1-1.4x to 1.3-1.7x) — so the floor is
// 2.5, between the tiers whatever the layout, not 1.5. GemmTB at
// 8x64x72, the shape of the trunk conv's lowered forward — which only the Go
// tier and Convolve's fallback run since the AVX2 tier convolves directly;
// the dot tile stays the product of every shape Direct declines: the tile
// measures 5.5-10x over the naive dot form, the Go tier's 2x2 tile 1.7-2.2x
// — a floor of 3. QSGD at 16 400
// coordinates: the tiled draw fill plus the four-lane quantizer measure
// 2.0-2.7x over the scalar loop with a Float64 call per coordinate (the
// norm's serial add chain is in both); the fill alone, 1.0-1.25x. Normal
// draws, 1 024 at a time: the tiled attempts plus the four-lane polar kernel
// measure 2.4-2.7x over one NormFloat64 call per value; the tiled attempts
// alone, 1.2-1.5x — so this floor is 2, not 1.5. The softmax loss of one
// 4x10 batch: the kernel with a row per lane measures 3.4-4.5x over the
// scalar loop written out (its exps and log are math's calls), the Go tier
// (which is that loop) 0.96x. The 10-class head's dW, 10x64 from four rows:
// the panel kernel, each row's list built and run in one call, measures
// 3.4-5.2x over the per-row list path written out, the Go tier (which is
// that path) 1.1x. Axpy at 650: the four-lane kernel measures 2.7-4.2x over
// the scalar loop written out where it was used, the Go tier 1.0-1.3x (its
// loop is resliced, so it checks no bounds) — floors of 2 for the four.
// Top-k's list at ps_adasync's 650 coordinates, ratio 0.1 (it replaced the
// emission at wire_mix's 16 400, a pass top-k no longer runs): the four-lane
// compaction of indices measures 2.58-2.75x over its Go loop written out,
// the Go tier (which is that loop) 1.01-1.02x — a floor of 2. CHOCO's mix at the
// torus row, five sources of 16 400 coordinates, the sixteen nodes' rows
// taken in turn: the one fused pass measures 3.3-4.7x over the Go passes
// written out, the Go tier (which is those passes) 0.9-1.07x — a floor of
// 2. The trunk conv's forward for one sample with its ReLU folded in: the
// direct kernel, which rectifies as it stores, measures 4.27-4.59x over the
// lowered product and the separate ReLU written out (Lower, GemmTB, the bias
// loop, tensor.ReLU — Lower is its Go loop on both tiers, GemmTB the dot
// tile and ReLU reluAVX2 on this one), the Go tier (which is that product)
// 0.97-1.08x — a floor of 1.5.
// Max-pooling the trunk's 8x8x8 output: the four-lane kernel measures
// 4.2-5.1x over its Go loop written out, the Go tier (which is that loop)
// 0.82-0.92x — a floor of 2. The trunk conv's backward for a batch of 16
// through its folded ReLU, the masked gradient 73% zeros: ConvGrad, which
// masks as it lists and sums dB and builds no masked copy, patches matrix,
// patch gradients or raised image, measures 4.54-5.36x over the separate
// ReLUGrad and the lowered backward written out (ReLUGrad, the row sums,
// Lower, Gemm, GemmTA, Raise per sample), the Go tier (which is that
// backward) 0.99-1.07x — a floor of 1.4.
// async_fleet's 650 QSGD rounding uniforms: FillFloat64's kernel measures
// 1.25-1.50x over the Go loop it ran before, written out, the Go tier
// (which is that loop) 0.88-1.02x — a floor of 1.15, the margin small
// because xoshiro256**'s serial state chain, which both sides run, is most
// of either.
var ratioPairs = []ratioPair{
	{"Gemm256/blocked", "Gemm256/naive", 2.5, 1, gemm256Setup},
	{"GemmTB8x64x72", "GemmTBNaive8x64x72", 3, 16, gemmTBTrunkSetup},
	{"CompressInto16400/qsgd", "QSGDScalarRef16400", 1.5, 2, qsgdSetup},
	{"FillNormFloat641024", "NormFloat64Ref1024", 2, 8, normSetup},
	{"Softmax4x10", "SoftmaxRef4x10", 2, 64, softmaxSetup},
	{"GemmTA10x64k4", "GemmTAListRef10x64k4", 2, 64, gemmTAHeadSetup},
	{"Axpy650", "AxpyRef650", 2, 32, axpySetup},
	{"KeepFrom650", "KeepFromRef650", 2, 64, keepSetup},
	{"ChocoMix16400", "ChocoMixRef16400", 2, 4, mixSetup},
	{"Convolve8x8x8", "ConvolveRef8x8x8", 1.5, 16, convolveSetup},
	{"MaxPool8x8x8", "MaxPoolRef8x8x8", 2, 64, maxPoolSetup},
	{"ConvBack8x8x8", "ConvBackRef8x8x8", 1.4, 2, convBackSetup},
	{"FillFloat64650", "FillFloat64Ref650", 1.15, 64, fillSetup},
}

// sampleRounds is how many rounds a best-of alternates the two rows for, and
// verdictSamplings how many best-ofs a pair under its floor gets before its
// verdict.
const (
	sampleRounds     = 16
	verdictSamplings = 3
)

// sample times the pair's two rows alternately, so both meet the same
// neighbours, and keeps each one's fastest round: interference only ever
// adds time. A pair that one best-of-16 puts under its floor is sampled
// again, each row keeping its fastest round over every best-of, until it
// clears the floor or has had verdictSamplings of them. A host busy with
// other work — tier-1 runs other packages' test binaries on the same cores —
// can slow a row through all sixteen rounds of one best-of (a top-k pair
// once read 1.97x against its 2.0x that way), while a kernel that lost its
// margin stays under the floor however long it is sampled.
func (p ratioPair) sample() (fast, ref Result) {
	steps := [2]func(){p.setup(true), p.setup(false)}
	best := [2]float64{math.Inf(1), math.Inf(1)}
	for s := 0; s == 0 || s < verdictSamplings && best[0]*p.floor > best[1]; s++ {
		for round := 0; round < sampleRounds; round++ {
			for i, step := range steps {
				start := time.Now()
				for c := 0; c < p.calls; c++ {
					step()
				}
				best[i] = min(best[i], float64(time.Since(start).Nanoseconds())/float64(p.calls))
			}
		}
	}
	return Result{best[0]}, Result{best[1]}
}

// checkRatios asserts the margins of ratioPairs on the rows of one run.
// kernels is the tier the run used (tensor.Kernels): on "go" no row has a
// packed kernel under it, and a ratio under the floor says so instead of
// reading as a regression of the assembly. A pair with a row missing is not
// compared.
func checkRatios(curr map[string]Result, kernels string) []string {
	var violations []string
	for _, pair := range ratioPairs {
		fast, okF := curr[pair.fast]
		ref, okR := curr[pair.ref]
		if !okF || !okR || fast.NsPerOp*pair.floor <= ref.NsPerOp {
			continue
		}
		why := "the avx2 kernels ran"
		if kernels != "avx2" {
			why = "it ran the " + kernels + " kernels: this host has no AVX2, or the build is purego"
		}
		violations = append(violations, fmt.Sprintf(
			"%s %.0f ns/op is not %.1fx faster than %s %.0f ns/op (%s)",
			pair.fast, fast.NsPerOp, pair.floor, pair.ref, ref.NsPerOp, why))
	}
	return violations
}
