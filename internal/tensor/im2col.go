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
// elements are zero. It is the reference for ConvPlan.Gather: the in-bounds
// kernel window of each output position is computed once, so no element is
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
// so callers can accumulate. It is the reference for ConvPlan.Scatter; each
// image element receives its contributions in ascending patch-row order.
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

// ConvPlan is the im2col/col2im index table of one ConvShape: for every
// in-bounds patch element, in Im2Col's row-major patch order, the offset
// into the patches matrix and the offset into the image. Padding elements
// have no entry, so both loops run without a bounds test per element. A
// plan is immutable after NewConvPlan and may be shared across goroutines
// (layer clones share one).
type ConvPlan struct {
	shape      ConvShape
	patch, img []int32
}

// NewConvPlan builds the table for s by lowering an image of 1-based pixel
// numbers with Im2Col: a patch element then names the pixel it copies, and
// padding reads 0.
func NewConvPlan(s ConvShape) *ConvPlan {
	pixels := make([]float64, s.Channels*s.Height*s.Width)
	for i := range pixels {
		pixels[i] = float64(i + 1)
	}
	lowered := NewMatrix(s.OutHeight()*s.OutWidth(), s.PatchLen())
	Im2Col(s, pixels, lowered)
	n := 0
	for _, v := range lowered.Data {
		if v != 0 {
			n++
		}
	}
	tab := make([]int32, 2*n) // one allocation, both columns, sized exactly
	p := &ConvPlan{shape: s, patch: tab[:0:n], img: tab[n : n : 2*n]}
	for o, v := range lowered.Data {
		if v != 0 {
			p.patch = append(p.patch, int32(o))
			p.img = append(p.img, int32(v)-1)
		}
	}
	return p
}

// Gather is Im2Col for a dst whose padding elements are ALREADY zero: it
// writes the in-bounds elements only. A freshly allocated matrix, or one
// only ever written by Gather calls of this plan, qualifies.
func (p *ConvPlan) Gather(img []float64, dst *Matrix) {
	p.shape.check(len(img), dst, "Gather")
	d, src := dst.Data, p.img[:len(p.patch)]
	for n, o := range p.patch {
		d[o] = img[src[n]]
	}
}

// Scatter is Col2Im: dst[img] += patches[patch] over the table, in the
// same order, so every image element accumulates the same terms in the
// same sequence.
func (p *ConvPlan) Scatter(patches *Matrix, dst []float64) {
	p.shape.check(len(dst), patches, "Scatter")
	d, to := patches.Data, p.img[:len(p.patch)]
	for n, o := range p.patch {
		dst[to[n]] += d[o]
	}
}
