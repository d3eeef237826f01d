package main

import (
	"fmt"
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

// ratioPairs are the nine margins.
//
// Gemm-256: the AVX2 axpy kernel measures 3.9-5.7x over the retained naive
// reference (naive scalar code is pinned at one multiply-add per cycle; the
// packed kernel retires four per instruction); the Go loops 1.1-1.7x on a
// dense product, a range that follows GemmNaive's code alignment (a 160-byte
// layout shift once moved it from 1.1-1.4x to 1.3-1.7x) — so the floor is
// 2.5, between the tiers whatever the layout, not 1.5. GemmTB at the
// trunk conv's 8x64x72: the dot tile measures 5.6-7.1x over the naive dot
// form, the Go tier's 2x2 tile 1.7-2.2x — a floor of 3. QSGD at 16 400
// coordinates: the tiled draw fill plus the four-lane quantizer measure
// 2.0-2.7x over the scalar loop with a Float64 call per coordinate (the
// norm's serial add chain is in both); the fill alone, 1.0-1.25x. Normal
// draws, 1 024 at a time: the tiled attempts plus the four-lane polar kernel
// measure 2.4-2.7x over one NormFloat64 call per value; the tiled attempts
// alone, 1.2-1.5x — so this floor is 2, not 1.5. Exps, one softmax block of
// 40: the four-lane archExp twin measures 3.0-5.4x over the math.Exp calls,
// the Go tier (which is those calls) 0.9-1.0x. Axpy at 650: the four-lane
// kernel measures 2.7-4.2x over the scalar loop written out where it was
// used, the Go tier 1.0-1.3x (its loop is resliced, so it checks no bounds)
// — floors of 2 for both. Lower at the ResNetNano trunk conv's 8x8x8 under a
// 3x3 kernel: the overlapping four-wide runs measure 4.9-6.4x over Lower's
// Go loop written out, the Go tier (which is that loop) 1.09-1.10x — a
// floor of 2. Top-k's emission at wire_mix's 16 400 coordinates, ratio 0.25:
// the four-lane compaction measures 2.2-2.6x over its Go loop written out,
// the Go tier (which is that loop) 0.9-1.1x — a floor of 2. CHOCO's mix at
// the torus row, five sources of 16 400 coordinates, the sixteen nodes'
// rows taken in turn: the one fused pass measures 3.3-4.7x over the Go
// passes written out, the Go tier (which is those passes) 0.9-1.07x — a
// floor of 2.
var ratioPairs = []ratioPair{
	{"Gemm256/blocked", "Gemm256/naive", 2.5, 1, gemm256Setup},
	{"GemmTB8x64x72", "GemmTBNaive8x64x72", 3, 16, gemmTBTrunkSetup},
	{"CompressInto16400/qsgd", "QSGDScalarRef16400", 1.5, 2, qsgdSetup},
	{"FillNormFloat641024", "NormFloat64Ref1024", 2, 8, normSetup},
	{"ExpInto40", "ExpRef40", 2, 64, expSetup},
	{"Axpy650", "AxpyRef650", 2, 32, axpySetup},
	{"Lower8x8x8", "LowerRef8x8x8", 2, 16, lowerSetup},
	{"EmitAbove16400", "EmitAboveRef16400", 2, 4, emitSetup},
	{"ChocoMix16400", "ChocoMixRef16400", 2, 4, mixSetup},
}

// sampleRounds is how many rounds sample alternates the two rows for.
const sampleRounds = 16

// sample times the pair's two rows alternately, so both meet the same
// neighbours, and keeps each one's fastest round: interference only ever
// adds time.
func (p ratioPair) sample() (fast, ref Result) {
	steps := [2]func(){p.setup(true), p.setup(false)}
	var best [2]float64
	for round := 0; round < sampleRounds; round++ {
		for i, step := range steps {
			start := time.Now()
			for c := 0; c < p.calls; c++ {
				step()
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(p.calls)
			if round == 0 || ns < best[i] {
				best[i] = ns
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
