package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/tensor"
)

func res(ns float64, allocs int64) Result {
	return Result{NsPerOp: ns, AllocsPerOp: allocs, Iterations: 1}
}

func TestCheckRegressionPassesWithinTolerance(t *testing.T) {
	base := map[string]Result{
		"Gemm64":      res(1000, 0),
		"StepVGGNano": res(5000, 2),
	}
	curr := map[string]Result{
		"Gemm64":      res(1200, 0), // +20% < 35% tolerance
		"StepVGGNano": res(4800, 2),
	}
	v, nsRows, allocRows := checkRegression(curr, base, pinnedKernels, 0.35)
	if len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	// The normal case reports what it stood on: both rows are pinned and
	// both are shared.
	if nsRows != 2 || allocRows != 2 {
		t.Fatalf("compared %d ns/op rows and %d allocs/op rows, want 2 and 2", nsRows, allocRows)
	}
}

// TestCheckRegressionCountsWhatItCompared: a baseline with no benchmarks (any
// JSON file without that key unmarshals into one) and a baseline that shares
// no row with the run produce no violation — and no comparison, which is
// what the command turns into exit 2 instead of "gate ok".
func TestCheckRegressionCountsWhatItCompared(t *testing.T) {
	curr := map[string]Result{"Gemm64": res(1000, 0), "PASGDRound/serial": res(1000, 4)}
	for name, base := range map[string]map[string]Result{
		"empty":    nil,
		"disjoint": {"Gemm256/naive": res(1000, 0), "RingGossipRound/raw": res(1000, 0)},
	} {
		v, nsRows, allocRows := checkRegression(curr, base, pinnedKernels, 0.35)
		if len(v) != 0 || nsRows != 0 || allocRows != 0 {
			t.Errorf("%s baseline: violations %v, %d ns/op rows, %d allocs/op rows; want none of each", name, v, nsRows, allocRows)
		}
	}
	// A shared row that is not pinned is an allocs/op comparison only.
	_, nsRows, allocRows := checkRegression(curr, map[string]Result{"PASGDRound/serial": res(1, 4)}, pinnedKernels, 0.35)
	if nsRows != 0 || allocRows != 1 {
		t.Errorf("unpinned shared row: %d ns/op rows, %d allocs/op rows; want 0 and 1", nsRows, allocRows)
	}
}

func TestCheckRegressionCatchesInjectedSlowdown(t *testing.T) {
	// The acceptance demo: inject a 2x slowdown on a pinned kernel and the
	// gate must fail.
	base := map[string]Result{"Gemm64": res(1000, 0)}
	curr := map[string]Result{"Gemm64": res(2000, 0)}
	v, _, _ := checkRegression(curr, base, pinnedKernels, 0.35)
	if len(v) != 1 || !strings.Contains(v[0], "Gemm64") {
		t.Fatalf("2x slowdown not caught: %v", v)
	}
	// The same numbers pass once the tolerance admits them.
	if v, _, _ := checkRegression(curr, base, pinnedKernels, 1.5); len(v) != 0 {
		t.Fatalf("tolerance 150%% still failed: %v", v)
	}
}

func TestCheckRegressionCatchesAllocIncrease(t *testing.T) {
	// allocs/op is gated on EVERY shared benchmark, not just pinned ones,
	// and with zero tolerance — counts are host-independent.
	base := map[string]Result{"PASGDRound/serial": res(1000, 4)}
	curr := map[string]Result{"PASGDRound/serial": res(1000, 5)}
	v, _, _ := checkRegression(curr, base, pinnedKernels, 0.35)
	if len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Fatalf("alloc increase not caught: %v", v)
	}
}

func TestCheckRegressionIgnoresUnsharedBenches(t *testing.T) {
	// New benchmarks (no baseline entry) and retired ones (no current entry)
	// must not trip the gate.
	base := map[string]Result{"Retired": res(10, 99), "Gemm64": res(1000, 0)}
	curr := map[string]Result{"Gemm256/blocked": res(10, 0), "Gemm64": res(1000, 0)}
	if v, _, _ := checkRegression(curr, base, pinnedKernels, 0.35); len(v) != 0 {
		t.Fatalf("unshared benches tripped the gate: %v", v)
	}
}

func TestCheckRatiosBlockedMustBeatNaive(t *testing.T) {
	ok := map[string]Result{
		"Gemm256/naive":   res(10000, 0),
		"Gemm256/blocked": res(5000, 0),
	}
	if v := checkRatios(ok, "avx2"); len(v) != 0 {
		t.Fatalf("healthy ratio tripped the gate: %v", v)
	}
	bad := map[string]Result{
		"Gemm256/naive":   res(10000, 0),
		"Gemm256/blocked": res(9500, 0), // only 1.05x
	}
	v := checkRatios(bad, "avx2")
	if len(v) != 1 || !strings.Contains(v[0], "Gemm256") || strings.Contains(v[0], "no AVX2") {
		t.Fatalf("degraded blocked kernel not caught: %v", v)
	}
	// The same ratio on the Go tier is a statement about the host.
	if v := checkRatios(bad, "go"); len(v) != 1 || !strings.Contains(v[0], "this host has no AVX2") {
		t.Fatalf("the violation does not name the tier: %v", v)
	}
	// Missing entries (e.g. a trimmed bench list) are not a violation.
	if v := checkRatios(map[string]Result{"Gemm64": res(1, 0)}, "avx2"); len(v) != 0 {
		t.Fatalf("missing benches tripped the ratio gate: %v", v)
	}
}

func TestCheckRatiosQSGDMustBeatScalarReference(t *testing.T) {
	ok := map[string]Result{
		"QSGDScalarRef16400":     res(120000, 0),
		"CompressInto16400/qsgd": res(50000, 0),
	}
	if v := checkRatios(ok, "avx2"); len(v) != 0 {
		t.Fatalf("healthy ratio tripped the gate: %v", v)
	}
	bad := map[string]Result{
		"QSGDScalarRef16400":     res(120000, 0),
		"CompressInto16400/qsgd": res(105000, 0), // the Go tier's 1.14x
		"Gemm256/naive":          res(10000, 0),
		"Gemm256/blocked":        res(2000, 0),
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
	curr := map[string]Result{"NormFloat64Ref1024": res(20000, 0), "FillNormFloat641024": res(8500, 0)}
	if v := checkRatios(curr, "avx2"); len(v) != 0 {
		t.Fatalf("healthy ratio tripped the gate: %v", v)
	}
	curr["FillNormFloat641024"] = res(13000, 0) // 1.54x: the Go tier on a good day
	if v := checkRatios(curr, "go"); len(v) != 1 || !strings.Contains(v[0], "FillNormFloat641024") ||
		!strings.Contains(v[0], "this host has no AVX2") || strings.Contains(v[0], "\n") {
		t.Fatalf("a fill at the Go tier's speed is not caught in one line naming the tier: %q", v)
	}
}

// TestQSGDRatioFollowsTheTier times the two rows for real and hands them to
// the gate: on the AVX2 tier the margin holds, and with the kernels off — a
// host without AVX2, or this test under `go test -tags purego ./cmd/bench`,
// where tensor's switch is the constant false — the same rows fail the gate
// in one line that says which tier ran.
func TestQSGDRatioFollowsTheTier(t *testing.T) {
	ratioFollowsTheTier(t, "CompressInto16400/qsgd", compressSetup("qsgd:4", 16400, true),
		"QSGDScalarRef16400", qsgdScalarRefSetup(16400, 4))
}

// TestNormRatioFollowsTheTier: the same for the normal fill against the
// NormFloat64 calls; the tiled attempts alone do not clear the floor.
func TestNormRatioFollowsTheTier(t *testing.T) {
	ratioFollowsTheTier(t, "FillNormFloat641024", normSetup(true), "NormFloat64Ref1024", normSetup(false))
}

// TestExpRatioFollowsTheTier: the same for the softmax block's exps against
// the math.Exp calls, which is all the Go tier runs.
func TestExpRatioFollowsTheTier(t *testing.T) {
	ratioFollowsTheTier(t, "ExpInto40", expSetup(true), "ExpRef40", expSetup(false))
}

// TestAxpyRatioFollowsTheTier: the same for Axpy against the scalar loop.
func TestAxpyRatioFollowsTheTier(t *testing.T) {
	ratioFollowsTheTier(t, "Axpy650", axpySetup(true), "AxpyRef650", axpySetup(false))
}

// ratioFollowsTheTier samples the two rows alternately, so both meet the
// same neighbours, and keeps each one's fastest sample: interference only
// ever adds time.
func ratioFollowsTheTier(t *testing.T, fast string, fastStep func(), ref string, refStep func()) {
	steps := map[string]func(){fast: fastStep, ref: refStep}
	curr := map[string]Result{}
	for round := 0; round < 16; round++ {
		for name, step := range steps {
			const calls = 8
			start := time.Now()
			for i := 0; i < calls; i++ {
				step()
			}
			ns := float64(time.Since(start).Nanoseconds()) / calls
			if prev, ok := curr[name]; !ok || ns < prev.NsPerOp {
				curr[name] = res(ns, 0)
			}
		}
	}
	t.Logf("%s kernels: reference %s %.0f ns/op, %s %.0f ns/op (%.2fx)", tensor.Kernels(),
		ref, curr[ref].NsPerOp, fast, curr[fast].NsPerOp, curr[ref].NsPerOp/curr[fast].NsPerOp)
	v := checkRatios(curr, tensor.Kernels())
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
