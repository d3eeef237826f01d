package tensor

import "math"

// ConvGrad is one conv layer's backward pass, one sample at a time: with G
// the sample's F x P output gradient (its channel-major gradient row, read as
// the matrix it is, masked by the output where a ReLU is folded in), X its
// P x L patches and W the F x L filters, Sample computes dB += G's row sums,
// dW += G*X and, when asked, the input gradient dIn = Zero + Col2Im(G^T*W) —
// bit for bit what the lowered path computes: ReLUGrad, addRowSumsGo,
// Lower, Gemm(G, X), GemmTA(G, W), Raise. That path is what every shape the
// direct kernels decline runs, on the Go tier all of them, and it is their
// oracle.
//
// Where s.Direct() holds, dW is computed from the padded image with no
// patches matrix: per filter, the non-zero coefficients of G's row are
// listed once, and one kernel holds the filter's dW row in registers across
// the list, each term the window's pad value times the coefficient added to
// the running element — Gemm's terms in Gemm's order, a zero coefficient
// skipped as Gemm skips it. Where directDX also holds (C a multiple of four,
// W at least four), the input gradient is computed from D rows, the rows of
// G^T*W that GemmTA would write: per position the filters whose coefficient
// is not zero are listed, each D row starts at +0 and adds W'*g over that
// list (GemmTA's terms, W' the filters in [quad][k][4] order, so a lane holds
// one of four channels); an output row's D rows go to a ring of three, and
// each image row is gathered from the ring, each pixel from +0 adding its
// terms in ascending position order (Col2Im's), then stored straight into
// dIn. A missing position (the border) adds +0, which changes no bit: a sum
// that starts at +0 is never -0. No patches matrix, no dPatches, no raised
// padded image.
//
// A ConvGrad belongs to one layer: Load sizes its scratch once per shape.
// The zero value is ready for use.
type ConvGrad struct {
	s       ConvShape
	w       Matrix // the filters of the current pass
	wantDIn bool   // whether the pass's Samples compute dIn
	// The lowered input gradient: the P x L dPatches and Raise's own padded
	// image (Raise dirties its border, which Lower and Convolve need zero).
	dx   *Matrix
	dPad []float64
	// The direct kernels' scratch.
	wt    []float64 // wt[f*L + q*36 + k*4 + i] = w[f*L + (4q+i)*9 + k]
	table []int     // the byte offset in pad of each position's window
	off   []int     // dW's lists (positions), then dX's (byte offsets of wt rows), listLen per position
	val   []float64 // the listed coefficients
	cnt   []int     // each position's dX list length
	// ring holds three output rows' D rows and a zero row. In a row, the
	// element of D row slot, k = ky*3+kx, channel 4q+i is at
	// ((k*quads + q)*convSlots + slot)*4 + i: a gather reads four adjacent
	// slots of one k and quad as four adjacent vectors.
	ring []float64
	// masked is one sample's G masked by the output (Sample), F x P, held
	// where a product reads G as a matrix — the lowered dW or dIn; the list
	// kernels mask as they list and need none.
	masked []float64
}

// directDX reports whether ConvGrad computes the input gradient without
// lowering: a shape Direct accepts, whose channels come in quads and whose
// image rows hold a group of four pixels.
func (s ConvShape) directDX() bool {
	return s.Direct() && s.Channels%4 == 0 && s.Width >= 4
}

// Load readies g for one backward pass over shape s with the filters w: it
// sizes the scratch on the first pass and, when the input gradient is wanted
// and computed directly, copies w into wt. Call it once per pass, before the
// pass's Samples; wantDIn says whether they will ask for dIn.
func (g *ConvGrad) Load(s ConvShape, w *Matrix, wantDIn bool) {
	p, l := s.OutHeight()*s.OutWidth(), s.PatchLen()
	if w.Cols != l || w.Rows < 1 {
		panic("tensor: ConvGrad filter shape mismatch")
	}
	if g.s != s || g.w.Rows != w.Rows {
		*g = ConvGrad{s: s}
	}
	g.w, g.wantDIn = *w, wantDIn
	if s.Direct() && g.table == nil {
		g.table = make([]int, p)
		for q := range g.table {
			g.table[q] = (q/s.OutWidth()*(s.Width+2*s.Pad) + q%s.OutWidth()) * 8
		}
	}
	lists := 0
	switch {
	case wantDIn && s.directDX():
		lists = listLen(w.Rows) * p
	case s.Direct():
		lists = p
	}
	if len(g.off) < lists {
		g.off, g.val = make([]int, lists), make([]float64, lists)
	}
	switch {
	case !wantDIn:
	case s.directDX():
		if g.wt == nil {
			g.wt, g.cnt = make([]float64, len(w.Data)), make([]int, p)
			g.ring = make([]float64, 4*9*s.Channels*convSlots(s))
		}
		for q := 0; q < len(w.Data); q += 36 { // a quad of channels: four runs of nine in, nine of four out
			src, dst := w.Data[q:q+36:q+36], g.wt[q:q+36:q+36]
			for k := 0; k < 9; k++ {
				dst[4*k], dst[4*k+1], dst[4*k+2], dst[4*k+3] = src[k], src[9+k], src[18+k], src[27+k]
			}
		}
	case g.dx == nil:
		g.dx, g.dPad = NewMatrix(p, l), make([]float64, s.PadLen())
	}
	if g.masked == nil && g.lowers() {
		g.masked = make([]float64, w.Rows*p)
	}
}

// lowers reports whether the pass Load readied multiplies G as a matrix: a
// shape Direct declines, or an input gradient directDX declines.
func (g *ConvGrad) lowers() bool { return !g.s.Direct() || g.wantDIn && !g.s.directDX() }

// listLen is the room one position's filter list takes: the filter count
// rounded up to whole groups of four, which the list kernel stores at once.
func listLen(filters int) int { return (filters + 3) &^ 3 }

// convSlots is the number of D rows a ring row holds per output row: the
// OutWidth positions and two zero slots on either side, which the gather
// reads where a pixel's window would start off the output.
func convSlots(s ConvShape) int { return s.OutWidth() + 4 }

// Sample is one sample's backward through the filters Load was given: grad
// is its F x P output gradient, img its input image, pad Convolve's padded
// image (length PadLen, border zero: Sample frames img into its interior),
// x the P x L patches matrix the lowered dW needs (nil where s.Direct()
// holds). dW accumulates G*X, dB (one element per filter) G's row sums,
// each row added left to right onto its element (addRowSumsGo); dIn, nil
// when the pass does not want it, becomes Zero + Col2Im(G^T*W).
//
// out, when not nil, is the sample's output as Convolve stored it with relu
// (F x P): G is then ReLUGrad(grad, out) — grad where out is anything but +0,
// +0 elsewhere — which is the input gradient of the ReLU the conv folded. The
// list kernels take each coefficient masked as they list it, so a
// coefficient is skipped exactly where that G holds an exact zero and the
// terms are its terms; a lowered product takes G from the scratch masked.
func (g *ConvGrad) Sample(grad, out, img, pad []float64, x, dW *Matrix, dB, dIn []float64) {
	s, nf := g.s, g.w.Rows
	p := s.OutHeight() * s.OutWidth()
	if len(grad) != nf*p || dW.Rows != nf || dW.Cols != g.w.Cols || len(dB) != nf || len(img) != s.Channels*s.Height*s.Width {
		panic("tensor: ConvGrad.Sample shape mismatch")
	}
	if (dIn != nil) != g.wantDIn || dIn != nil && len(dIn) != len(img) {
		panic("tensor: ConvGrad.Sample input gradient does not match the Load")
	}
	if out != nil && len(out) != len(grad) {
		panic("tensor: ConvGrad.Sample output length mismatch")
	}
	if out != nil && g.lowers() {
		ReLUGrad(g.masked, grad, out)
		grad, out = g.masked, nil
	}
	gm := Matrix{Rows: nf, Cols: p, Data: grad}
	if s.Direct() {
		pw := s.walk("ConvGrad", pad)
		s.frame(img, pad)
		g.directDB(grad, out, dB)
		g.directDW(pw, grad, out, pad, dW.Data)
	} else {
		addRowSumsGo(grad, dB)
		Lower(s, img, pad, x)
		Gemm(1, &gm, x, 1, dW) // dW += G * X
	}
	switch {
	case dIn == nil:
	case s.directDX():
		g.directDX(grad, out, dIn)
	default:
		GemmTA(1, &gm, &g.w, 0, g.dx) // dX = G^T * W, beta=0 overwrites
		Raise(s, g.dx, g.dPad, dIn)
	}
}

// addRowSumsGo adds each of the len(acc) rows of g into its element of acc,
// left to right from the value already in acc. Four rows advance together: a
// row's sum is one dependent chain of adds, and four independent chains keep
// the adder busy instead of waiting on it.
func addRowSumsGo(g, acc []float64) {
	n := len(g) / len(acc)
	row := func(f int) []float64 { return g[f*n : (f+1)*n : (f+1)*n] }
	f := 0
	for ; f+4 <= len(acc); f += 4 {
		r0, r1, r2, r3 := row(f), row(f+1), row(f+2), row(f+3)
		s0, s1, s2, s3 := acc[f], acc[f+1], acc[f+2], acc[f+3]
		for j, v := range r0 {
			s0 += v
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		acc[f], acc[f+1], acc[f+2], acc[f+3] = s0, s1, s2, s3
	}
	for ; f < len(acc); f++ {
		s := acc[f]
		for _, v := range row(f) {
			s += v
		}
		acc[f] = s
	}
}

// maskedRowSumsGo is addRowSumsGo with each element of g masked by the same
// element of out as ReLUGrad masks it, a row at a time: the kernels' sums for
// the rows that do not fill a group of four.
func maskedRowSumsGo(g, out, acc []float64) {
	if len(acc) == 0 {
		return
	}
	n := len(g) / len(acc)
	for f := range acc {
		s, o := acc[f], out[f*n:(f+1)*n]
		for j, v := range g[f*n : (f+1)*n] {
			b := math.Float64bits(o[j])
			s += math.Float64frombits(math.Float64bits(v) & uint64(-int64((b|-b)>>63)))
		}
		acc[f] = s
	}
}
