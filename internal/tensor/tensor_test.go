package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
}

func TestAxpyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Axpy(1, []float64{1}, []float64{1, 2})
}

func TestScalDotNorm(t *testing.T) {
	x := []float64{3, 4}
	if got := Dot(x, x); got != 25 {
		t.Fatalf("Dot = %v, want 25", got)
	}
	if got := Norm2(x); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	Scal(2, x)
	if x[0] != 6 || x[1] != 8 {
		t.Fatalf("Scal = %v", x)
	}
}

func TestAddSubZeroFill(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	dst := make([]float64, 2)
	Add(dst, a, b)
	if dst[0] != 4 || dst[1] != 7 {
		t.Fatalf("Add = %v", dst)
	}
	Sub(dst, b, a)
	if dst[0] != 2 || dst[1] != 3 {
		t.Fatalf("Sub = %v", dst)
	}
	Fill(dst, 9)
	if dst[0] != 9 || dst[1] != 9 {
		t.Fatalf("Fill = %v", dst)
	}
	Zero(dst)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("Zero = %v", dst)
	}
}

func TestMean(t *testing.T) {
	dst := make([]float64, 2)
	Mean(dst, []float64{1, 2}, []float64{3, 4}, []float64{5, 6})
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("Mean = %v, want [3 4]", dst)
	}
}

func TestMeanPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on Mean of zero vectors")
		}
	}()
	Mean(make([]float64, 2))
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Row(1)[2] = 7
	if m.At(1, 2) != 7 {
		t.Fatal("Row/At failed")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 7 {
		t.Fatal("Row view failed")
	}
}

// naiveMatMul is an obviously-correct reference for Gemm checks.
func naiveMatMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Row(i)[j] = s
		}
	}
	return c
}

func fillSeq(m *Matrix) {
	for i := range m.Data {
		m.Data[i] = float64((i*7)%13) - 6
	}
}

func TestGemmAgainstNaive(t *testing.T) {
	a := NewMatrix(4, 5)
	b := NewMatrix(5, 3)
	fillSeq(a)
	fillSeq(b)
	want := naiveMatMul(a, b)
	c := NewMatrix(4, 3)
	Gemm(1, a, b, 0, c)
	for i := range c.Data {
		if !approxEq(c.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("Gemm mismatch at %d: %v vs %v", i, c.Data[i], want.Data[i])
		}
	}
}

func TestGemmAlphaBeta(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 2)
	fillSeq(a)
	fillSeq(b)
	c := NewMatrix(2, 2)
	Fill(c.Data, 1)
	Gemm(2, a, b, 3, c) // C = 2AB + 3*ones
	want := naiveMatMul(a, b)
	for i := range c.Data {
		if !approxEq(c.Data[i], 2*want.Data[i]+3, 1e-12) {
			t.Fatalf("alpha/beta Gemm wrong at %d", i)
		}
	}
}

func transpose(m *Matrix) *Matrix {
	tm := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			tm.Row(j)[i] = m.At(i, j)
		}
	}
	return tm
}

func TestGemmTA(t *testing.T) {
	a := NewMatrix(5, 4) // A^T is 4x5
	b := NewMatrix(5, 3)
	fillSeq(a)
	fillSeq(b)
	want := naiveMatMul(transpose(a), b)
	c := NewMatrix(4, 3)
	GemmTA(1, a, b, 0, c)
	for i := range c.Data {
		if !approxEq(c.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("GemmTA mismatch at %d", i)
		}
	}
}

func TestGemmTB(t *testing.T) {
	a := NewMatrix(4, 5)
	b := NewMatrix(3, 5) // B^T is 5x3
	fillSeq(a)
	fillSeq(b)
	want := naiveMatMul(a, transpose(b))
	c := NewMatrix(4, 3)
	GemmTB(1, a, b, 0, c)
	for i := range c.Data {
		if !approxEq(c.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("GemmTB mismatch at %d", i)
		}
	}
}

func TestGemmPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on Gemm mismatch")
		}
	}()
	Gemm(1, NewMatrix(2, 3), NewMatrix(2, 3), 0, NewMatrix(2, 3))
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: patches matrix equals the image laid
	// out one pixel per row.
	s := ConvShape{Channels: 1, Height: 2, Width: 3, Kernel: 1, Stride: 1, Pad: 0}
	img := []float64{1, 2, 3, 4, 5, 6}
	dst := NewMatrix(s.OutHeight()*s.OutWidth(), s.PatchLen())
	Im2Col(s, img, dst)
	for i, v := range img {
		if dst.At(i, 0) != v {
			t.Fatalf("Im2Col 1x1 mismatch at %d", i)
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	// 3x3 kernel with pad 1 on a 1x1 image: single output position whose
	// patch is zero except the center.
	s := ConvShape{Channels: 1, Height: 1, Width: 1, Kernel: 3, Stride: 1, Pad: 1}
	img := []float64{5}
	dst := NewMatrix(1, 9)
	Im2Col(s, img, dst)
	for i := 0; i < 9; i++ {
		want := 0.0
		if i == 4 {
			want = 5
		}
		if dst.At(0, i) != want {
			t.Fatalf("pad patch[%d] = %v, want %v", i, dst.At(0, i), want)
		}
	}
}

func TestIm2ColShapes(t *testing.T) {
	s := ConvShape{Channels: 3, Height: 8, Width: 8, Kernel: 3, Stride: 2, Pad: 1}
	if s.OutHeight() != 4 || s.OutWidth() != 4 {
		t.Fatalf("out shape %dx%d, want 4x4", s.OutHeight(), s.OutWidth())
	}
	if s.PatchLen() != 27 {
		t.Fatalf("patch len %d, want 27", s.PatchLen())
	}
}

// TestCol2ImAdjoint checks the defining adjoint property:
// <Im2Col(x), P> == <x, Col2Im(P)> for all x, P.
func TestCol2ImAdjoint(t *testing.T) {
	s := ConvShape{Channels: 2, Height: 5, Width: 4, Kernel: 3, Stride: 1, Pad: 1}
	n := s.Channels * s.Height * s.Width
	rows, cols := s.OutHeight()*s.OutWidth(), s.PatchLen()

	img := make([]float64, n)
	for i := range img {
		img[i] = float64((i*13)%7) - 3
	}
	p := NewMatrix(rows, cols)
	fillSeq(p)

	lowered := NewMatrix(rows, cols)
	Im2Col(s, img, lowered)
	lhs := Dot(lowered.Data, p.Data)

	back := make([]float64, n)
	Col2Im(s, p, back)
	rhs := Dot(img, back)

	if !approxEq(lhs, rhs, 1e-9) {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

// Property: Gemm is linear in alpha.
func TestGemmLinearInAlpha(t *testing.T) {
	f := func(seed int64) bool {
		a := NewMatrix(3, 3)
		b := NewMatrix(3, 3)
		v := seed
		next := func() float64 {
			v = v*6364136223846793005 + 1442695040888963407
			return float64(v%1000) / 250
		}
		for i := range a.Data {
			a.Data[i] = next()
			b.Data[i] = next()
		}
		c1 := NewMatrix(3, 3)
		c2 := NewMatrix(3, 3)
		Gemm(2, a, b, 0, c1)
		Gemm(1, a, b, 0, c2)
		for i := range c1.Data {
			if !approxEq(c1.Data[i], 2*c2.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mean of identical vectors is the vector itself.
func TestMeanIdempotent(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp to a range where 3*v cannot overflow.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				v = 1
			}
			x[i] = v
		}
		dst := make([]float64, len(x))
		Mean(dst, x, x, x)
		for i := range dst {
			if !approxEq(dst[i], x[i], 1e-9*(1+math.Abs(x[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Regression: beta == 0 must OVERWRITE the destination (BLAS semantics),
// not scale it by zero — 0 * NaN = NaN, so stale NaN/Inf in a reused
// destination buffer would otherwise poison every product written into it.
func TestGemmBetaZeroOverwritesStaleNaN(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 2)
	bt := NewMatrix(2, 3) // B^T operand for GemmTB
	at := NewMatrix(3, 2) // A^T operand for GemmTA
	for i := range a.Data {
		a.Data[i] = float64(i + 1)
		bt.Data[i] = float64(i + 2)
	}
	for i := range b.Data {
		b.Data[i] = float64(i + 2)
		at.Data[i] = float64(i + 1)
	}

	poison := func(m *Matrix) {
		for i := range m.Data {
			if i%2 == 0 {
				m.Data[i] = math.NaN()
			} else {
				m.Data[i] = math.Inf(1)
			}
		}
	}
	check := func(name string, got, want *Matrix) {
		t.Helper()
		for i := range got.Data {
			if math.IsNaN(got.Data[i]) || math.IsInf(got.Data[i], 0) {
				t.Fatalf("%s: stale poison survived beta=0 at %d: %v", name, i, got.Data[i])
			}
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s: element %d = %v, want %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}

	clean := NewMatrix(2, 2)
	Gemm(1, a, b, 0, clean)
	dirty := NewMatrix(2, 2)
	poison(dirty)
	Gemm(1, a, b, 0, dirty)
	check("Gemm", dirty, clean)

	cleanTB := NewMatrix(2, 2)
	GemmTB(1, a, bt, 0, cleanTB)
	poison(dirty)
	GemmTB(1, a, bt, 0, dirty)
	check("GemmTB", dirty, cleanTB)

	cleanTA := NewMatrix(2, 2)
	GemmTA(1, at, b, 0, cleanTA)
	poison(dirty)
	GemmTA(1, at, b, 0, dirty)
	check("GemmTA", dirty, cleanTA)
}

// im2colRef and col2imRef are the loops Im2Col and Col2Im shipped with
// before they lost their per-element bounds test: the definition the faster
// references and the ConvPlan table are checked against.
func im2colRef(s ConvShape, img []float64, dst *Matrix) {
	row := 0
	for oy := 0; oy < s.OutHeight(); oy++ {
		for ox := 0; ox < s.OutWidth(); ox++ {
			d := dst.Row(row)
			idx := 0
			for c := 0; c < s.Channels; c++ {
				base := c * s.Height * s.Width
				for ky := 0; ky < s.Kernel; ky++ {
					iy := oy*s.Stride + ky - s.Pad
					for kx := 0; kx < s.Kernel; kx++ {
						ix := ox*s.Stride + kx - s.Pad
						if iy < 0 || iy >= s.Height || ix < 0 || ix >= s.Width {
							d[idx] = 0
						} else {
							d[idx] = img[base+iy*s.Width+ix]
						}
						idx++
					}
				}
			}
			row++
		}
	}
}

func col2imRef(s ConvShape, patches *Matrix, dst []float64) {
	row := 0
	for oy := 0; oy < s.OutHeight(); oy++ {
		for ox := 0; ox < s.OutWidth(); ox++ {
			p := patches.Row(row)
			idx := 0
			for c := 0; c < s.Channels; c++ {
				base := c * s.Height * s.Width
				for ky := 0; ky < s.Kernel; ky++ {
					iy := oy*s.Stride + ky - s.Pad
					for kx := 0; kx < s.Kernel; kx++ {
						ix := ox*s.Stride + kx - s.Pad
						if iy >= 0 && iy < s.Height && ix >= 0 && ix < s.Width {
							dst[base+iy*s.Width+ix] += p[idx]
						}
						idx++
					}
				}
			}
			row++
		}
	}
}

// TestConvLoweringParity compares, bit for bit, Im2Col/Col2Im and the
// ConvPlan table against the per-element reference loops, over the layer
// shapes in use plus stride 2, no padding, a 1x1 kernel, a non-square image
// and padding at least as wide as the kernel (whole kernel rows out of
// bounds). Values include -0, and Col2Im accumulates onto a non-zero image,
// so a reordered or dropped addition shows.
func TestConvLoweringParity(t *testing.T) {
	shapes := []ConvShape{
		{Channels: 1, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 1},
		{Channels: 8, Height: 4, Width: 4, Kernel: 3, Stride: 1, Pad: 1},
		{Channels: 3, Height: 7, Width: 7, Kernel: 3, Stride: 2, Pad: 1},
		{Channels: 2, Height: 5, Width: 6, Kernel: 3, Stride: 1, Pad: 0},
		{Channels: 2, Height: 3, Width: 4, Kernel: 1, Stride: 1, Pad: 0},
		{Channels: 1, Height: 3, Width: 2, Kernel: 2, Stride: 1, Pad: 2},
		{Channels: 2, Height: 4, Width: 5, Kernel: 3, Stride: 2, Pad: 3},
	}
	r := parityRNG(13)
	for _, s := range shapes {
		n := s.Channels * s.Height * s.Width
		rows, cols := s.OutHeight()*s.OutWidth(), s.PatchLen()
		plan := NewConvPlan(s)
		gathered := NewMatrix(rows, cols) // zero, then only ever Gather-written
		for round := 0; round < 2; round++ {
			img := make([]float64, n)
			fillParity(&r, img)
			want := NewMatrix(rows, cols)
			im2colRef(s, img, want)

			got := parityMatrix(&r, rows, cols) // stale contents must not survive
			Im2Col(s, img, got)
			if i, ok := bitsEqual(got.Data, want.Data); !ok {
				t.Fatalf("Im2Col %+v: element %d = %v want %v", s, i, got.Data[i], want.Data[i])
			}
			plan.Gather(img, gathered)
			if i, ok := bitsEqual(gathered.Data, want.Data); !ok {
				t.Fatalf("Gather %+v round %d: element %d = %v want %v", s, round, i, gathered.Data[i], want.Data[i])
			}

			patches := parityMatrix(&r, rows, cols)
			base := make([]float64, n)
			fillParity(&r, base)
			wantImg := append([]float64(nil), base...)
			col2imRef(s, patches, wantImg)
			for name, f := range map[string]func(*Matrix, []float64){
				"Col2Im":  func(p *Matrix, dst []float64) { Col2Im(s, p, dst) },
				"Scatter": plan.Scatter,
			} {
				gotImg := append([]float64(nil), base...)
				f(patches, gotImg)
				if i, ok := bitsEqual(gotImg, wantImg); !ok {
					t.Fatalf("%s %+v: element %d = %v want %v", name, s, i, gotImg[i], wantImg[i])
				}
			}
		}
	}
}
