//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"testing"
)

// The softmax kernel's exp on its two paths, each against a Go oracle of its
// own, and useFMA against package math. useFMA is flipped like useAVX2: the
// path this host's math does not take runs too, where math shows the CPU
// has FMA.

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

// eachExpPath runs f with the kernel on the unfused path and, where this
// host's math.Exp fuses (so the CPU has FMA), on the fused one; f learns
// which.
func eachExpPath(t *testing.T, f func(t *testing.T, fused bool)) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no AVX2 tier on this CPU/OS: the softmax is the scalar loop")
	}
	hostFused := useFMA
	defer func() { useFMA = hostFused }()
	for _, fused := range []bool{false, true} {
		if fused && !hostFused {
			t.Log("fused path skipped: math.Exp does not fuse in this process")
			continue
		}
		useFMA = fused
		t.Run(map[bool]string{false: "unfused", true: "fused"}[fused], func(t *testing.T) { f(t, fused) })
	}
}

// softmaxPath is the kernel's oracle on one exp path: softmaxGo with expRef
// for math.Exp in every group of four rows (the last 1-3 rows one group)
// whose arguments all lie in the kernel's domain, and softmaxGo itself in
// every other group — the kernel hands those to it. The domain test here is
// per argument; the kernel's pass-3 test is one per row, on the least logit.
func softmaxPath(logZ, d, x []float64, cols int, scale float64, fused bool) {
	for g := 0; g < len(logZ); g += 4 {
		n := min(4, len(logZ)-g)
		gz, gx := logZ[g:g+n], x[g*cols:(g+n)*cols]
		var gd []float64
		if d != nil {
			gd = d[g*cols : (g+n)*cols]
		}
		inDomain := true
		for r := range gz {
			row := gx[r*cols : (r+1)*cols]
			mx := row[0]
			for _, v := range row[1:] {
				if v > mx {
					mx = v
				}
			}
			sum := 0.0
			for _, v := range row {
				a := v - mx
				inDomain = inDomain && a >= expLo && a <= expHi
				sum += expRef(a, fused)
			}
			lz := mx + math.Log(sum)
			gz[r] = lz
			for j, v := range row {
				a := v - lz
				if gd != nil {
					inDomain = inDomain && a >= expLo && a <= expHi
					gd[r*cols+j] = expRef(a, fused) * scale
				}
			}
		}
		if !inDomain {
			softmaxGo(gz, gd, gx, cols, scale)
		}
	}
}

// checkSoftmaxPath holds SoftmaxRows to softmaxPath on the path the kernel
// runs, with and without a gradient.
func checkSoftmaxPath(t *testing.T, what string, x []float64, cols int, scale float64, fused bool) {
	t.Helper()
	rows := len(x) / cols
	for _, withD := range []bool{true, false} {
		got, want := make([]float64, rows), make([]float64, rows)
		var gotD, wantD []float64
		if withD {
			gotD, wantD = make([]float64, len(x)), make([]float64, len(x))
		}
		SoftmaxRows(got, gotD, x, cols, scale)
		softmaxPath(want, wantD, x, cols, scale, fused)
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("fused=%v %s (gradient %v): logZ[%d] = %x, oracle %x", fused, what, withD, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
		if i, ok := bitsEqual(gotD, wantD); !ok {
			t.Fatalf("fused=%v %s: d[%d] = %x, oracle %x (logit %v)", fused, what, i, math.Float64bits(gotD[i]), math.Float64bits(wantD[i]), x[i])
		}
	}
}

func TestExpKernelPathsMatchOracles(t *testing.T) {
	eachExpPath(t, func(t *testing.T, fused bool) {
		r := parityRNG(31)
		for _, cols := range []int{1, 2, 3, 4, 7, 10, 16} {
			for rows := 1; rows <= 9; rows++ {
				for rep := 0; rep < 60; rep++ {
					regime := rep % softmaxRegimes
					x := softmaxBlock(&r, rows, cols, regime)
					checkSoftmaxPath(t, fmt.Sprintf("%dx%d regime %d", rows, cols, regime), x, cols, 1/float64(rows), fused)
				}
			}
		}
	})
}

// TestFMAProbeAgreesWithMath: at an x where the two oracles differ (a random
// one, not the argument useFMA asks at), math.Exp must give the one of the
// path useFMA chose — so the kernel mirrors the path math takes in this
// process, whatever the kernel tier.
func TestFMAProbeAgreesWithMath(t *testing.T) {
	r := parityRNG(32)
	for i := 0; i < 1_000_000; i++ {
		x := r.next() * 700
		if expRef(x, true) == expRef(x, false) {
			continue
		}
		if want := expRef(x, useFMA); math.Exp(x) != want {
			t.Fatalf("useFMA = %v, but math.Exp(%v) = %x, that path's oracle %x (the other path's %x)",
				useFMA, x, math.Float64bits(math.Exp(x)), math.Float64bits(want), math.Float64bits(expRef(x, !useFMA)))
		}
		t.Logf("x = %v: math.Exp takes the %s path, and so does the kernel", x, map[bool]string{false: "unfused", true: "fused"}[useFMA])
		return
	}
	t.Fatal("no argument in a million where the two paths differ")
}

// TestExpOraclesUnderGODEBUG re-runs the exp and softmax oracle tests in a
// child process under GODEBUG=cpu.fma=off and under cpu.avx=off, where
// math.Exp takes its unfused path on an FMA host: useFMA must follow it. (The
// goldens pin the fused host, so they are not among them.)
func TestExpOraclesUnderGODEBUG(t *testing.T) {
	if os.Getenv("GODEBUG") != "" {
		t.Skip("GODEBUG is set: this is a child, or the caller chose its own settings")
	}
	for _, setting := range []string{"cpu.fma=off", "cpu.avx=off"} {
		cmd := exec.Command(os.Args[0], "-test.count=1",
			"-test.run=^(TestFMAProbeAgreesWithMath|TestExpKernelPathsMatchOracles|TestSoftmaxRowsMatchScalarLoop|FuzzExpTwin|FuzzSoftmaxTwin)$")
		cmd.Env = append(os.Environ(), "GODEBUG="+setting)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("GODEBUG=%s: %v\n%s", setting, err, out)
		}
	}
}

// FuzzExpTwin feeds four raw float64 words through the kernel's exp as
// softmax blocks — four rows [0, w], the rows' arguments the words less the
// larger of 0 and the word; one row of the four words, a remainder group of
// one lane; two rows of two — and holds SoftmaxRows to the scalar loop on the
// path the process takes, and each exp path to its oracle. The seed corpus
// is expSpecials, so plain `go test` replays those cases.
func FuzzExpTwin(f *testing.F) {
	sp := expSpecials
	for i := range sp {
		w := func(k int) uint64 { return math.Float64bits(sp[(i+k)%len(sp)]) }
		f.Add(w(0), w(1), w(5), w(11))
	}
	f.Add(math.Float64bits(-0.3), math.Float64bits(-2.5), math.Float64bits(0), math.Float64bits(-7.25))
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3 uint64) {
		v := [4]float64{math.Float64frombits(w0), math.Float64frombits(w1), math.Float64frombits(w2), math.Float64frombits(w3)}
		blocks := []struct {
			x    []float64
			cols int
		}{
			{[]float64{0, v[0], 0, v[1], 0, v[2], 0, v[3]}, 2},
			{v[:], 4},
			{v[:], 2},
		}
		for _, b := range blocks {
			checkSoftmaxRows(t, fmt.Sprintf("%d rows of %d", len(b.x)/b.cols, b.cols), b.x, b.cols, 0, 1)
		}
		eachExpPath(t, func(t *testing.T, fused bool) {
			for _, b := range blocks {
				checkSoftmaxPath(t, fmt.Sprintf("%d rows of %d", len(b.x)/b.cols, b.cols), b.x, b.cols, 1, fused)
			}
		})
	})
}
