package tensor

// Im2Col lowers a convolution into a matrix multiply. The input image has
// shape (channels, height, width) stored channel-major in a flat slice. The
// output matrix has one row per output spatial position and one column per
// (channel, kh, kw) patch element, so that
//
//	out = patches (outH*outW x C*K*K)  *  kernels^T (C*K*K x F)
//
// computes all F filters at once. Zero padding is applied symmetrically.
type ConvShape struct {
	Channels, Height, Width int // input shape
	Kernel                  int // square kernel size K
	Stride                  int
	Pad                     int
}

// OutHeight returns the convolution output height.
func (s ConvShape) OutHeight() int { return (s.Height+2*s.Pad-s.Kernel)/s.Stride + 1 }

// OutWidth returns the convolution output width.
func (s ConvShape) OutWidth() int { return (s.Width+2*s.Pad-s.Kernel)/s.Stride + 1 }

// PatchLen returns the number of elements per patch row (C*K*K).
func (s ConvShape) PatchLen() int { return s.Channels * s.Kernel * s.Kernel }

func (s ConvShape) check(imgLen int, patches *Matrix, op string) {
	if imgLen != s.Channels*s.Height*s.Width {
		panic("tensor: " + op + " image length mismatch")
	}
	if patches.Rows != s.OutHeight()*s.OutWidth() || patches.Cols != s.PatchLen() {
		panic("tensor: " + op + " patches shape mismatch")
	}
}

// kernelRange returns the kernel offsets [lo, hi) that land inside an input
// axis of the given size for output coordinate o, and the input coordinate
// of kernel offset 0.
func (s ConvShape) kernelRange(o, size int) (lo, hi, at0 int) {
	at0 = o*s.Stride - s.Pad
	lo = min(max(-at0, 0), s.Kernel)
	hi = max(lo, min(size-at0, s.Kernel))
	return lo, hi, at0
}

// Im2Col fills dst (OutHeight*OutWidth rows x PatchLen cols) with image
// patches from img (length Channels*Height*Width). Out-of-bounds (padding)
// elements are zero. It is the reference for Lower: the in-bounds kernel
// window of each output position is computed once, so no element is
// bounds-tested.
func Im2Col(s ConvShape, img []float64, dst *Matrix) {
	s.check(len(img), dst, "Im2Col")
	outH, outW, k := s.OutHeight(), s.OutWidth(), s.Kernel
	Zero(dst.Data)
	for oy := 0; oy < outH; oy++ {
		kyLo, kyHi, y0 := s.kernelRange(oy, s.Height)
		for ox := 0; ox < outW; ox++ {
			kxLo, kxHi, x0 := s.kernelRange(ox, s.Width)
			d := dst.Row(oy*outW + ox)
			for c := 0; c < s.Channels; c++ {
				for ky := kyLo; ky < kyHi; ky++ {
					src := (c*s.Height+y0+ky)*s.Width + x0
					o := (c*k + ky) * k
					for kx := kxLo; kx < kxHi; kx++ {
						d[o+kx] = img[src+kx]
					}
				}
			}
		}
	}
}

// Col2Im scatter-adds patch gradients back into an image gradient: the
// adjoint of Im2Col. dst (length Channels*Height*Width) is NOT zeroed first,
// so callers can accumulate. It is the reference for Raise; each image
// element receives its contributions in ascending patch-row order.
func Col2Im(s ConvShape, patches *Matrix, dst []float64) {
	s.check(len(dst), patches, "Col2Im")
	outH, outW, k := s.OutHeight(), s.OutWidth(), s.Kernel
	for oy := 0; oy < outH; oy++ {
		kyLo, kyHi, y0 := s.kernelRange(oy, s.Height)
		for ox := 0; ox < outW; ox++ {
			kxLo, kxHi, x0 := s.kernelRange(ox, s.Width)
			p := patches.Row(oy*outW + ox)
			for c := 0; c < s.Channels; c++ {
				for ky := kyLo; ky < kyHi; ky++ {
					to := (c*s.Height+y0+ky)*s.Width + x0
					o := (c*k + ky) * k
					for kx := kxLo; kx < kxHi; kx++ {
						dst[to+kx] += p[o+kx]
					}
				}
			}
		}
	}
}

// PadLen is the length of the zero-bordered image Lower and Raise work
// through: C*(H+2P)*(W+2P).
func (s ConvShape) PadLen() int {
	return s.Channels * (s.Height + 2*s.Pad) * (s.Width + 2*s.Pad)
}

// padWalk is the walk Lower and Raise take through a padded image, in
// elements: the n patch rows of one output row start step apart, and a
// patch's kernel rows wp and its channels plane apart.
type padWalk struct{ k, chans, n, step, wp, plane int }

// walk checks the shape and pad's length for op and returns the walk.
func (s ConvShape) walk(op string, pad []float64) padWalk {
	if s.Channels < 1 || s.Kernel < 1 || s.Stride < 1 || s.Pad < 0 ||
		s.Height+2*s.Pad < s.Kernel || s.Width+2*s.Pad < s.Kernel {
		panic("tensor: " + op + " shape has no output")
	}
	if len(pad) != s.PadLen() {
		panic("tensor: " + op + " pad length mismatch")
	}
	wp := s.Width + 2*s.Pad
	return padWalk{k: s.Kernel, chans: s.Channels, n: s.OutWidth(), step: s.Stride,
		wp: wp, plane: (s.Height + 2*s.Pad) * wp}
}

// Lower is Im2Col through pad, a zero-bordered copy of the image. It copies
// img into pad's interior, then writes EVERY element of dst: each patch row
// is C*K runs of K contiguous elements of pad, so no element is tested
// against the image's bounds. dst needs no preparation, and the result is
// Im2Col's bit for bit. pad is caller scratch of length PadLen whose border
// is zero; Lower writes only its interior, so a freshly allocated pad that
// nothing but Lower is ever given stays zero-bordered (Raise's pad must be
// another: Raise leaves the border dirty).
func Lower(s ConvShape, img, pad []float64, dst *Matrix) {
	s.check(len(img), dst, "Lower")
	w := s.walk("Lower", pad)
	s.frame(img, pad)
	span, outH := w.n*dst.Cols, s.OutHeight()
	for oy := 0; oy < outH; oy++ {
		lowerRowsGo(w, dst.Data[oy*span:(oy+1)*span], pad[oy*s.Stride*w.wp:])
	}
}

// Raise is Zero(dst) followed by Col2Im, bit for bit, through pad, scratch
// of length PadLen whose contents on entry do not matter: it clears pad, adds
// every patch row's runs into it in ascending patch-row order (each pixel's
// terms in Col2Im's sequence, the border taking what falls on the padding),
// and copies pad's interior out to dst.
func Raise(s ConvShape, patches *Matrix, pad, dst []float64) {
	s.check(len(dst), patches, "Raise")
	w := s.walk("Raise", pad)
	Zero(pad)
	span, outH := w.n*patches.Cols, s.OutHeight()
	for oy := 0; oy < outH; oy++ {
		raiseRowsGo(w, pad[oy*s.Stride*w.wp:], patches.Data[oy*span:(oy+1)*span])
	}
	s.unframe(pad, dst)
}

// frame copies img into pad's interior, row by row; the border is left as
// it is. Rows a multiple of four wide move four at a time on the AVX2 tier
// (moveRows), others one copy per row.
func (s ConvShape) frame(img, pad []float64) {
	h, w, p := s.Height, s.Width, s.Pad
	wp := w + 2*p
	if moveRows(pad[p*wp+p:], img, s.Channels, h, w, wp, (h+2*p)*wp, w, h*w) {
		return
	}
	for c := 0; c < s.Channels; c++ {
		for y := 0; y < h; y++ {
			copy(pad[(c*(h+2*p)+y+p)*wp+p:][:w], img[(c*h+y)*w:])
		}
	}
}

// unframe copies pad's interior out to img, as frame moves it in.
func (s ConvShape) unframe(pad, img []float64) {
	h, w, p := s.Height, s.Width, s.Pad
	wp := w + 2*p
	if moveRows(img, pad[p*wp+p:], s.Channels, h, w, w, h*w, wp, (h+2*p)*wp) {
		return
	}
	for c := 0; c < s.Channels; c++ {
		for y := 0; y < h; y++ {
			copy(img[(c*h+y)*w:][:w], pad[(c*(h+2*p)+y+p)*wp+p:])
		}
	}
}

// lowerRowsGo writes Lower's w.n patch rows of one output row into d, the
// first patch's window at pad[0]: one run of K per channel and kernel row.
func lowerRowsGo(w padWalk, d, pad []float64) {
	k, o := w.k, 0
	for x := 0; x < w.n; x++ {
		for c := 0; c < w.chans; c++ {
			for ky := 0; ky < k; ky++ {
				at := x*w.step + c*w.plane + ky*w.wp
				run := d[o : o+k : o+k]
				for kx, v := range pad[at : at+k] {
					run[kx] = v
				}
				o += k
			}
		}
	}
}

// raiseRowsGo adds Raise's w.n patch rows in d into their windows of pad, in
// order.
func raiseRowsGo(w padWalk, pad, d []float64) {
	k, o := w.k, 0
	for x := 0; x < w.n; x++ {
		for c := 0; c < w.chans; c++ {
			for ky := 0; ky < k; ky++ {
				at := x*w.step + c*w.plane + ky*w.wp
				run := pad[at : at+k : at+k]
				for kx, v := range d[o : o+k] {
					run[kx] += v
				}
				o += k
			}
		}
	}
}
