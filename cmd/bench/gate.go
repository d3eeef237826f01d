package main

import (
	"fmt"
	"sort"
)

// The regression gate (-check) turns a committed BENCH_*.json into a CI
// fence. Wall-clock comparisons across machines are noisy, so the gate
// layers three checks of increasing portability:
//
//  1. ns/op on the PINNED KERNELS only — single-threaded, allocation-free
//     compute loops whose relative speed is stable across hosts — with a
//     configurable fractional tolerance (-tolerance).
//  2. allocs/op on every benchmark present in both records: steady-state
//     allocation counts are host-independent, so ANY increase fails.
//  3. intra-run ratios: the blocked Gemm, the QSGD quantizer and the normal
//     fill must beat the scalar references timed in the SAME run by the
//     floors of ratioPairs, which needs no baseline at all.
//
// Engine-run benchmarks (AsyncRun, PSUpdate, ...) are deliberately not
// ns/op-gated: their wall clock depends on pool scheduling and host load.

// pinnedKernels are the ns/op-gated benchmarks: pure compute hot loops,
// single-goroutine and input-cycled where a fixed operand would flatter
// them. The TopK rows build a fresh message per call (2 allocs/op, 3 under
// error feedback, gated exactly by check 2); the CompressInto rows recycle
// one and are gated on that alone (0 allocs/op) — their arithmetic is the
// TopK rows'. AsyncDispatchParked is an engine run, pinned because its wall
// is the dispatch walk and nothing a pool or host load schedules. The EvalLoss
// rows are gated on allocs/op alone: what they time is how an evaluation's
// buffers sit in the cache after a training interval, a property of the host.
// GaussianBlobs2304x1024 is wire_mix's data generation, two thirds of it the
// normal fill and a third the zeroing and shuffling of a 19 MB matrix; its 6
// allocs/op are gated exactly by check 2.
var pinnedKernels = []string{
	"Gemm64",
	"Gemm256/naive",
	"Gemm256/blocked",
	"Gemm16x16x72/zero-laden",
	"GemmTB8x64x72",
	"ReLU/fwd+bwd-8192",
	"ConvFwd/vgg2",
	"ConvBwd/vgg2",
	"LossGrad/VGGNano-b16",
	"StepVGGNano",
	"StepResNetNano",
	"AdamStep/64k",
	"TopK16400/r0.25",
	"TopKEF650/r0.1",
	"AsyncDispatchParked/2048",
	"FillNormFloat641024",
	"GaussianBlobs2304x1024",
}

// ratioPairs are the intra-run margins: each kernel row that runs on the
// AVX2 kernels must beat, by its floor, the scalar reference row timed beside
// it in the SAME run. No baseline is involved, so the check cannot drift with
// the recording host — and it trips if the dispatch silently stops choosing
// the kernels. A floor sits between what the two tiers measure, with headroom
// for runner jitter on either side, which is why a violation names the tier
// that ran.
//
// Gemm-256: the AVX2 axpy kernel measures 3.9-5.1x over the retained naive
// reference on the recording host (naive scalar code is pinned at one
// multiply-add per cycle; the packed kernel retires four per instruction; the
// SSE2 kernel it replaced measured ~2.7x); the Go loops measure ~1.0x on a
// dense product (their gain is on zero-laden operands). QSGD at 16 400
// coordinates: the tiled draw fill plus the four-lane quantizer measure
// 2.0-2.7x over the scalar loop with a Float64 call per coordinate (the
// norm's serial add chain is in both); the fill alone, 1.0-1.25x. Normal
// draws, 1 024 at a time: the tiled attempts plus the four-lane polar kernel
// measure 2.4-2.7x over one NormFloat64 call per value; the tiled attempts
// alone, 1.2-1.5x — so this floor is 2, not 1.5.
var ratioPairs = []struct {
	fast, ref string
	floor     float64
}{
	{"Gemm256/blocked", "Gemm256/naive", 1.5},
	{"CompressInto16400/qsgd", "QSGDScalarRef16400", 1.5},
	{"FillNormFloat641024", "NormFloat64Ref1024", 2},
}

// checkRegression compares the current run against a baseline record and
// returns one human-readable violation per failed check, with how many
// pinned ns/op rows and how many allocs/op rows it had on both sides to
// compare: a gate that compared nothing has not passed.
func checkRegression(curr, base map[string]Result, pinned []string, tol float64) (violations []string, nsRows, allocRows int) {
	for _, name := range pinned {
		c, okC := curr[name]
		b, okB := base[name]
		if !okC || !okB {
			continue // new or retired benchmark: nothing to compare
		}
		nsRows++
		if limit := b.NsPerOp * (1 + tol); c.NsPerOp > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%%",
				name, c.NsPerOp, b.NsPerOp, tol*100))
		}
	}
	// Allocation counts are deterministic per op: gate every shared bench.
	names := make([]string, 0, len(curr))
	for name := range curr {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, ok := base[name]
		if !ok {
			continue
		}
		allocRows++
		if c := curr[name]; c.AllocsPerOp > b.AllocsPerOp {
			violations = append(violations, fmt.Sprintf(
				"%s: %d allocs/op exceeds baseline %d allocs/op",
				name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return violations, nsRows, allocRows
}

// checkRatios asserts the baseline-free margins of ratioPairs within a
// single run. kernels is the tier the run used (tensor.Kernels): on "go" no
// row has a packed kernel under it, and a ratio under the floor says so
// instead of reading as a regression of the assembly. A pair with a row
// missing (a -run filter) is not compared.
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
