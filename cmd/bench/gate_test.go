package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/tensor"
)

func res(ns float64) Result { return Result{NsPerOp: ns} }

func TestCheckRatiosBlockedMustBeatNaive(t *testing.T) {
	ok := map[string]Result{
		"Gemm256/naive":   res(10000),
		"Gemm256/blocked": res(2500),
	}
	if v := checkRatios(ok, "avx2"); len(v) != 0 {
		t.Fatalf("healthy ratio tripped the gate: %v", v)
	}
	bad := map[string]Result{
		"Gemm256/naive":   res(10000),
		"Gemm256/blocked": res(5900), // 1.7x: the Go tier on its best layout
	}
	v := checkRatios(bad, "avx2")
	if len(v) != 1 || !strings.Contains(v[0], "Gemm256") || strings.Contains(v[0], "no AVX2") {
		t.Fatalf("degraded blocked kernel not caught: %v", v)
	}
	// The same ratio on the Go tier is a statement about the host.
	if v := checkRatios(bad, "go"); len(v) != 1 || !strings.Contains(v[0], "this host has no AVX2") {
		t.Fatalf("the violation does not name the tier: %v", v)
	}
	// A pair missing a row is not a violation.
	if v := checkRatios(map[string]Result{"Gemm256/blocked": res(1)}, "avx2"); len(v) != 0 {
		t.Fatalf("a half pair tripped the ratio gate: %v", v)
	}
}

func TestCheckRatiosQSGDMustBeatScalarReference(t *testing.T) {
	ok := map[string]Result{
		"QSGDScalarRef16400":     res(120000),
		"CompressInto16400/qsgd": res(50000),
	}
	if v := checkRatios(ok, "avx2"); len(v) != 0 {
		t.Fatalf("healthy ratio tripped the gate: %v", v)
	}
	bad := map[string]Result{
		"QSGDScalarRef16400":     res(120000),
		"CompressInto16400/qsgd": res(105000), // the Go tier's 1.14x
		"Gemm256/naive":          res(10000),
		"Gemm256/blocked":        res(2000),
	}
	v := checkRatios(bad, "avx2")
	if len(v) != 1 || !strings.Contains(v[0], "CompressInto16400/qsgd") || strings.Contains(v[0], "no AVX2") ||
		strings.Contains(v[0], "\n") {
		t.Fatalf("scalar-speed quantizer not caught in one line: %q", v)
	}
	if v := checkRatios(bad, "go"); len(v) != 1 || !strings.Contains(v[0], "this host has no AVX2") {
		t.Fatalf("the violation does not name the tier: %v", v)
	}
}

// TestCheckRatiosNormFillHasItsOwnFloor: the tiled attempts alone reach 1.5x
// over the calls, so that margin must not pass for the kernel's.
func TestCheckRatiosNormFillHasItsOwnFloor(t *testing.T) {
	curr := map[string]Result{"NormFloat64Ref1024": res(20000), "FillNormFloat641024": res(8500)}
	if v := checkRatios(curr, "avx2"); len(v) != 0 {
		t.Fatalf("healthy ratio tripped the gate: %v", v)
	}
	curr["FillNormFloat641024"] = res(13000) // 1.54x: the Go tier on a good day
	if v := checkRatios(curr, "go"); len(v) != 1 || !strings.Contains(v[0], "FillNormFloat641024") ||
		!strings.Contains(v[0], "this host has no AVX2") || strings.Contains(v[0], "\n") {
		t.Fatalf("a fill at the Go tier's speed is not caught in one line naming the tier: %q", v)
	}
}

// spin busies the thread for d: a row of a made-up pair.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestSampleRetakesAPairUnderItsFloor: a fast row held back through a whole
// best-of-16, as a loaded host can hold one, is sampled again and clears its
// floor; a row that is slow for good is sampled verdictSamplings times and
// stays under it.
func TestSampleRetakesAPairUnderItsFloor(t *testing.T) {
	var fastCalls int
	pair := func(slowFor int) ratioPair {
		fastCalls = 0
		return ratioPair{fast: "Made-up", ref: "MadeUpRef", floor: 2, calls: 1, setup: func(kernel bool) func() {
			if !kernel {
				return func() { spin(200 * time.Microsecond) }
			}
			return func() {
				if fastCalls++; fastCalls <= slowFor {
					spin(400 * time.Microsecond)
				} else {
					spin(20 * time.Microsecond)
				}
			}
		}}
	}
	if f, r := pair(sampleRounds).sample(); f.NsPerOp*2 > r.NsPerOp || fastCalls != 2*sampleRounds {
		t.Fatalf("held back for one best-of: %.0f against %.0f ns/op after %d rounds, want under half after %d",
			f.NsPerOp, r.NsPerOp, fastCalls, 2*sampleRounds)
	}
	if f, r := pair(1 << 30).sample(); f.NsPerOp*2 <= r.NsPerOp || fastCalls != verdictSamplings*sampleRounds {
		t.Fatalf("slow for good: %.0f against %.0f ns/op after %d rounds, want over half after %d",
			f.NsPerOp, r.NsPerOp, fastCalls, verdictSamplings*sampleRounds)
	}
	if pair(0).sample(); fastCalls != sampleRounds {
		t.Fatalf("a pair over its floor was sampled for %d rounds, want %d", fastCalls, sampleRounds)
	}
}

// The *RatioFollowsTheTier tests time a pair for real, through the sampler
// the command runs, and hand it to the gate: on the AVX2 tier the margin
// holds, and with the kernels off — a host without AVX2, or these tests
// under `go test -tags purego ./cmd/bench`, where tensor's switch is the
// constant false — the same rows fail the gate in one line that says which
// tier ran.

// TestGemmRatioFollowsTheTier: the blocked Gemm against the naive one, on a
// dense product where the Go loops' zero-skip never fires. The Go tier's
// ratio moves with GemmNaive's code alignment (1.1-1.7x seen), so the floor
// sits at 2.5, a margin no layout shift has crossed.
func TestGemmRatioFollowsTheTier(t *testing.T) { ratioFollowsTheTier(t, "Gemm256/blocked") }

// TestGemmTBRatioFollowsTheTier: the dot tile against the naive dot form;
// the Go tier's 2x2 tile does not clear the floor.
func TestGemmTBRatioFollowsTheTier(t *testing.T) { ratioFollowsTheTier(t, "GemmTB8x64x72") }

// TestQSGDRatioFollowsTheTier: the quantizer against the scalar loop with a
// Float64 call per coordinate.
func TestQSGDRatioFollowsTheTier(t *testing.T) { ratioFollowsTheTier(t, "CompressInto16400/qsgd") }

// TestNormRatioFollowsTheTier: the normal fill against the NormFloat64 calls;
// the tiled attempts alone do not clear the floor.
func TestNormRatioFollowsTheTier(t *testing.T) { ratioFollowsTheTier(t, "FillNormFloat641024") }

// TestSoftmaxRatioFollowsTheTier: the softmax loss of one 4x10 batch against
// the scalar loop, which is all the Go tier runs.
func TestSoftmaxRatioFollowsTheTier(t *testing.T) { ratioFollowsTheTier(t, "Softmax4x10") }

// TestGemmTARatioFollowsTheTier: the head's weight gradient through the
// panel kernel against the per-row list path, which is all the Go tier runs.
func TestGemmTARatioFollowsTheTier(t *testing.T) { ratioFollowsTheTier(t, "GemmTA10x64k4") }

// TestAxpyRatioFollowsTheTier: Axpy against the scalar loop.
func TestAxpyRatioFollowsTheTier(t *testing.T) { ratioFollowsTheTier(t, "Axpy650") }

// TestTopKRatioFollowsTheTier: top-k's emission against its Go loop, which
// is all the Go tier runs.
func TestTopKRatioFollowsTheTier(t *testing.T) { ratioFollowsTheTier(t, "EmitAbove16400") }

// TestMixRatioFollowsTheTier: CHOCO's fused mix against its Go passes,
// which are all the Go tier runs.
func TestMixRatioFollowsTheTier(t *testing.T) { ratioFollowsTheTier(t, "ChocoMix16400") }

// TestConvolveRatioFollowsTheTier: the direct conv kernel against the
// lowered product it replaces, which is all the Go tier runs.
func TestConvolveRatioFollowsTheTier(t *testing.T) { ratioFollowsTheTier(t, "Convolve8x8x8") }

// TestMaxPoolRatioFollowsTheTier: the four-lane max-pool against its Go
// loop, which is all the Go tier runs.
func TestMaxPoolRatioFollowsTheTier(t *testing.T) { ratioFollowsTheTier(t, "MaxPool8x8x8") }

// TestConvBackRatioFollowsTheTier: the conv backward without lowering
// against the lowered backward it replaces, which is all the Go tier runs.
func TestConvBackRatioFollowsTheTier(t *testing.T) { ratioFollowsTheTier(t, "ConvBack8x8x8") }

// TestFillRatioFollowsTheTier: the uniform fill against the Go loop it ran
// before the kernel, which is all the Go tier runs.
func TestFillRatioFollowsTheTier(t *testing.T) { ratioFollowsTheTier(t, "FillFloat64650") }

func ratioFollowsTheTier(t *testing.T, fast string) {
	var pair ratioPair
	for _, p := range ratioPairs {
		if p.fast == fast {
			pair = p
		}
	}
	if pair.fast == "" {
		t.Fatalf("no ratio pair times %s", fast)
	}
	f, r := pair.sample()
	t.Logf("%s kernels: reference %s %.0f ns/op, %s %.0f ns/op (%.2fx)", tensor.Kernels(),
		pair.ref, r.NsPerOp, fast, f.NsPerOp, r.NsPerOp/f.NsPerOp)
	v := checkRatios(map[string]Result{pair.fast: f, pair.ref: r}, tensor.Kernels())
	if tensor.Kernels() == "avx2" {
		if len(v) != 0 {
			t.Fatalf("%s lost its margin on the AVX2 tier: %v", fast, v)
		}
		return
	}
	if len(v) != 1 || !strings.Contains(v[0], fast) || !strings.Contains(v[0], "this host has no AVX2") ||
		strings.Contains(v[0], "\n") {
		t.Fatalf("kernels off, and the gate says %q", v)
	}
}
