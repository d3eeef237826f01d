package tensor

import "math"

// Direct reports whether Convolve and ConvGrad's dW run the direct kernels
// for s, which read the patches straight from the padded image and so need
// no patches matrix: the AVX2 tier, a 3x3 kernel at stride 1 (every conv of
// the zoo), and an output width that is a multiple of four.
func (s ConvShape) Direct() bool {
	return useAVX2 && s.Kernel == 3 && s.Stride == 1 && s.OutWidth() > 0 && s.OutWidth()%4 == 0
}

// Convolve is one sample's convolution: out, read as the F x P matrix a
// channel-major output image is (F = w.Rows filters of PatchLen weights,
// P = OutHeight*OutWidth positions), becomes W*X^T + bias, X the image's
// P x PatchLen patches. It is the lowered product — Lower(s, img, pad, x),
// GemmTB(1, w, x, 0, out), then bias[f] added to row f — and where s.Direct()
// is false it runs exactly that. Where it is true, img is framed into pad and
// the direct kernel computes every element from pad as the dot form does:
// from +0, a product then an add per patch element in ascending (c, ky, kx),
// then the bias, so the sums are the lowered product's bit for bit; x is not
// touched and may be nil. pad is Lower's scratch: length PadLen, its border
// zero, only its interior written. With relu, out then holds what ReLU(out,
// out) would leave there: the kernel applies ReLU's mask to each sum before
// its store, the lowered path runs ReLU after the bias loop.
func Convolve(s ConvShape, w *Matrix, bias, img, pad []float64, x *Matrix, out []float64, relu bool) {
	if w.Cols != s.PatchLen() || len(bias) != w.Rows || len(out) != w.Rows*s.OutHeight()*s.OutWidth() {
		panic("tensor: Convolve shape mismatch")
	}
	if !s.Direct() {
		convolveLowered(s, w, bias, img, pad, x, out)
		if relu {
			ReLU(out, out)
		}
		return
	}
	if len(img) != s.Channels*s.Height*s.Width {
		panic("tensor: Convolve image length mismatch")
	}
	pw := s.walk("Convolve", pad)
	s.frame(img, pad)
	convolveDirect(pw, w, bias, pad, out, relu)
}

// convolveLowered is the product Convolve's kernel replaces, its fallback and
// its oracle: the patches lowered into x, one dot-form product, the bias loop.
func convolveLowered(s ConvShape, w *Matrix, bias, img, pad []float64, x *Matrix, out []float64) {
	Lower(s, img, pad, x)
	y := Matrix{Rows: w.Rows, Cols: x.Rows, Data: out}
	GemmTB(1, w, x, 0, &y) // beta == 0 overwrites
	for f, b := range bias {
		row := y.Row(f)
		for pos := range row {
			row[pos] += b
		}
	}
}

// MaxPool pools the 2x2 windows of src, an image width wide whose channels
// are stacked rows, an even count of them, into dst (one quarter of src's
// length, windows in row-major order) and records each winner's offset in src
// in argmax. The first of equal maxima wins, in the order (0,0), (0,1),
// (1,0), (1,1), and a NaN wins only from the first place (pickMax). The AVX2
// kernel takes widths that are multiples of 8, and width 4 two bands (pairs
// of image rows) at a time when the band count is even; poolImageGo takes the
// rest and is the kernel's oracle.
func MaxPool(src []float64, width int, dst []float64, argmax []int) {
	if width < 2 || width%2 != 0 || len(src)%(2*width) != 0 || len(dst) != len(src)/4 || len(argmax) != len(dst) {
		panic("tensor: MaxPool shape mismatch")
	}
	if !poolBulk(src, width, dst, argmax) {
		poolImageGo(src, width, dst, argmax)
	}
}

// poolImageGo is MaxPool's Go loop. The image is walked as one tall plane,
// two rows at a time. A function of its own so the loop's handful of live
// values stay in registers.
func poolImageGo(src []float64, width int, dst []float64, argmax []int) {
	argmax = argmax[:len(dst)]
	p, rowEnd := 0, width // p: the window's top-left element
	for o := range dst {
		top, bot := src[p:p+2:p+2], src[p+width:p+width+2:p+width+2]
		best, at := pickMax(top[0], p, top[1], p+1)
		best, at = pickMax(best, at, bot[0], p+width)
		best, at = pickMax(best, at, bot[1], p+width+1)
		dst[o] = best
		argmax[o] = at
		if p += 2; p == rowEnd { // next pair of image rows
			p += width
			rowEnd += 2 * width
		}
	}
}

// pickMax returns (v, vIdx) when v > best and (best, bestIdx) otherwise —
// the comparison a branch would make (false on NaN, false on equal zeros of
// either sign), applied as a bit mask: activations are as good as random to
// a branch predictor.
func pickMax(best float64, bestIdx int, v float64, vIdx int) (float64, int) {
	var take uint64
	if v > best {
		take = 1
	}
	take = -take
	b, vb := math.Float64bits(best), math.Float64bits(v)
	return math.Float64frombits(b ^ (b^vb)&take), bestIdx ^ (bestIdx^vIdx)&int(take)
}
