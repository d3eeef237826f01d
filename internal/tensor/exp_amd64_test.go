//go:build amd64 && !purego

package tensor

import (
	"math"
	"testing"
)

// The exp kernel's two paths, each against a Go oracle of its own, and the
// probe that picks one against package math. useFMA is flipped like useAVX2:
// the path this host's math does not take runs too, wherever the CPU can
// execute it.

// expRef is math.archExp's arithmetic written in Go, for x in the kernel's
// domain: math.FMA for each VFNMADD231SD / VFMADD213SD of the fused path, and
// every product rounded on its own in the unfused one (the float64
// conversions keep the compiler from fusing them).
func expRef(x float64, fused bool) float64 {
	k := math.RoundToEven(x * log2e) // CVTSD2SL under the default rounding mode
	if fused {
		x = math.FMA(-k, ln2U, x)
		x = math.FMA(-k, ln2L, x)
	} else {
		x -= float64(k * ln2U)
		x -= float64(k * ln2L)
	}
	x *= 0.0625
	p := expC8
	for _, c := range []float64{expC7, expC6, expC5, expC4, expC3, 0.5, 1} {
		if fused {
			p = math.FMA(p, x, c)
		} else {
			p = float64(p*x) + c
		}
	}
	x *= p
	for i := 0; i < 3; i++ {
		x *= x + 2
	}
	if fused {
		x = math.FMA(x+2, x, 1)
	} else {
		x = float64(x*(x+2)) + 1
	}
	return x * math.Float64frombits(uint64(int64(k)+0x3FF)<<52)
}

// eachExpPath runs f with the kernel on the unfused path and, where the CPU
// has FMA, on the fused one; f learns which.
func eachExpPath(t *testing.T, f func(t *testing.T, fused bool)) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no AVX2 tier on this CPU/OS: ExpInto is math.Exp")
	}
	probed := useFMA
	defer func() { useFMA = probed }()
	for _, fused := range []bool{false, true} {
		if fused && !probeFMA() {
			t.Log("fused path skipped: this CPU has no FMA")
			continue
		}
		useFMA = fused
		t.Run(map[bool]string{false: "unfused", true: "fused"}[fused], func(t *testing.T) { f(t, fused) })
	}
}

// checkExpLanes holds the output for src, len(src) a multiple of 4, to the
// oracle of the path the kernel ran in every group it took — all four lanes
// in the domain — and to math.Exp in every group it handed back.
func checkExpLanes(t *testing.T, fused bool, src, got []float64) {
	t.Helper()
	for g := 0; g < len(src); g += 4 {
		inDomain := true
		for _, x := range src[g : g+4] {
			inDomain = inDomain && x >= expLo && x <= expHi
		}
		for i := g; i < g+4; i++ {
			x, want := src[i], math.Exp(src[i])
			if inDomain {
				want = expRef(x, fused)
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("fused=%v: lane %d (group in domain: %v): exp(%v = %x) = %x, oracle %x",
					fused, i, inDomain, x, math.Float64bits(x), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
}

func TestExpKernelPathsMatchOracles(t *testing.T) {
	eachExpPath(t, func(t *testing.T, fused bool) {
		r := parityRNG(31)
		for n := 4; n <= 64; n += 4 {
			for rep := 0; rep < 200; rep++ {
				src, got := make([]float64, n), make([]float64, n)
				for i := range src {
					src[i] = expArg(&r)
				}
				ExpInto(got, src)
				checkExpLanes(t, fused, src, got)
			}
		}
	})
}

// TestFMAProbeAgreesWithMath: at an x where the two oracles differ, math.Exp
// must give the one of the path the probe chose — so the kernel mirrors the
// path math takes on this host, whatever the kernel tier.
func TestFMAProbeAgreesWithMath(t *testing.T) {
	r := parityRNG(32)
	for i := 0; i < 1_000_000; i++ {
		x := r.next() * 700
		if expRef(x, true) == expRef(x, false) {
			continue
		}
		if want := expRef(x, probeFMA()); math.Exp(x) != want {
			t.Fatalf("probeFMA() = %v, but math.Exp(%v) = %x, that path's oracle %x (the other path's %x)",
				probeFMA(), x, math.Float64bits(math.Exp(x)), math.Float64bits(want), math.Float64bits(expRef(x, !probeFMA())))
		}
		t.Logf("x = %v: math.Exp takes the %s path, and so does the kernel", x, map[bool]string{false: "unfused", true: "fused"}[probeFMA()])
		return
	}
	t.Fatal("no argument in a million where the two paths differ")
}

// FuzzExpTwin feeds four raw float64 words through one group: ExpInto must
// equal math.Exp on the tier and path the probes chose, and each kernel path
// its oracle. The seed corpus is expSpecials, so plain `go test` replays
// those cases.
func FuzzExpTwin(f *testing.F) {
	sp := expSpecials
	for i := range sp {
		w := func(k int) uint64 { return math.Float64bits(sp[(i+k)%len(sp)]) }
		f.Add(w(0), w(1), w(5), w(11))
	}
	f.Add(math.Float64bits(-0.3), math.Float64bits(-2.5), math.Float64bits(0), math.Float64bits(-7.25))
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3 uint64) {
		src := []float64{math.Float64frombits(w0), math.Float64frombits(w1), math.Float64frombits(w2), math.Float64frombits(w3)}
		got := make([]float64, 4)
		ExpInto(got, src)
		for i, x := range src {
			if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
				t.Fatalf("lane %d: ExpInto(%x) = %x, math.Exp %x", i, math.Float64bits(x), math.Float64bits(got[i]), math.Float64bits(math.Exp(x)))
			}
		}
		eachExpPath(t, func(t *testing.T, fused bool) {
			ExpInto(got, src)
			checkExpLanes(t, fused, src, got)
		})
	})
}
