//go:build amd64 && !purego

package tensor

// convTile4x8 is the direct convolution's kernel: the thirty-two sums
//
//	out[f*ldo + j] = bias[f] + sum_k pad[at(j) + off(k)] * w[f*ldw + k]
//
// for filters f = 0..3 and positions j = 0..7, each started from +0,
// accumulated in ascending k = (c, ky, kx) over chans > 0 channels, a
// product then an add per term, the bias added last. Positions 0-3 are the
// four adjacent windows whose first starts at pad, 4-7 the four starting gb
// bytes on, and they land gbo bytes after 0-3 (32, or gb = gbo = 0 to compute
// one group twice into the same four elements). off(k) = c*plane + ky*wp +
// kx*8; every stride is in BYTES. With relu each sum is stored as ReLU
// stores it (reluKeep's mask, reluAVX2's instructions). convTile1x8 is the
// same for one filter.
//
//go:noescape
func convTile4x8(pad *float64, gb int, w *float64, ldw, chans, wp, plane int, bias, out *float64, ldo, gbo int, relu bool)

//go:noescape
func convTile1x8(pad *float64, gb int, w *float64, chans, wp, plane int, bias, out *float64, gbo int, relu bool)

// moveRowsAVX2 copies chans planes of rows rows of quads*4 elements, the rows
// and planes of dst and src at their own strides in BYTES.
//
//go:noescape
func moveRowsAVX2(dst, src *float64, chans, rows, quads, dstRow, dstPlane, srcRow, srcPlane int)

// poolAVX2 is poolImageGo over groups > 0 groups of steps > 0 steps of four
// windows, the step's two top-row vectors d elements apart (d = 4: one band
// of eight columns; d = 8 = 2*width: two bands of width 4). A step moves
// src on by 2*d elements and a group by skip more. lanes is the first step's
// top-left offsets in the kernel's lane order.
//
//go:noescape
func poolAVX2(src, dst *float64, argmax *int, width, d, steps, groups, skip int, lanes *[4]int)

// poolLanes are the top-left offsets of a step's four windows in the lanes
// VUNPCKLPD leaves them in — 0, d, 2, d+2 — for d = 4 and d = 8.
var poolLanes = [2][4]int{{0, 4, 2, 6}, {0, 8, 2, 10}}

// convolveDirect runs Convolve's kernel over every tile of four filters by
// eight positions (one filter at a time for F % 4), pw the walk of a shape
// Direct accepts. Positions are taken eight at a time in output order, as two
// groups of four that each lie in one output row (OutWidth % 4 == 0), so one
// output row at a time when OutWidth >= 8 and two when it is 4; a last lone
// group is computed twice into its four elements. With relu every tile stores
// ReLU of its sums.
func convolveDirect(pw padWalk, w *Matrix, bias, pad, out []float64, relu bool) {
	nf, l, outW := w.Rows, w.Cols, pw.n
	p := len(out) / nf
	_, _ = w.Data[nf*l-1], bias[nf-1]
	at := func(q int) int { return q/outW*pw.wp + q%outW } // pad offset of position q's window
	for q := 0; q < p; q += 8 {
		a, gb, gbo := at(q), 0, 0
		if q+4 < p {
			gb, gbo = (at(q+4)-at(q))*8, 32
		}
		f := 0
		for ; f+4 <= nf; f += 4 {
			convTile4x8(&pad[a], gb, &w.Data[f*l], l*8, pw.chans, pw.wp*8, pw.plane*8, &bias[f], &out[f*p+q], p*8, gbo, relu)
		}
		for ; f < nf; f++ {
			convTile1x8(&pad[a], gb, &w.Data[f*l], pw.chans, pw.wp*8, pw.plane*8, &bias[f], &out[f*p+q], gbo, relu)
		}
	}
}

// moveRows copies chans planes of rows rows, each width elements, from src to
// dst (row and plane strides in elements) on the AVX2 tier when width is a
// multiple of four, and reports whether it did.
func moveRows(dst, src []float64, chans, rows, width, dstRow, dstPlane, srcRow, srcPlane int) bool {
	if !useAVX2 || width%4 != 0 || chans*rows*width == 0 {
		return false
	}
	_ = dst[(chans-1)*dstPlane+(rows-1)*dstRow+width-1]
	_ = src[(chans-1)*srcPlane+(rows-1)*srcRow+width-1]
	moveRowsAVX2(&dst[0], &src[0], chans, rows, width/4, dstRow*8, dstPlane*8, srcRow*8, srcPlane*8)
	return true
}

// poolBulk runs MaxPool on the kernel and reports whether it did: widths a
// multiple of 8, one band per group; width 4 at an even band count, as one
// group of two bands per step.
func poolBulk(src []float64, width int, dst []float64, argmax []int) bool {
	bands := len(src) / (2 * width)
	switch {
	case !useAVX2 || bands == 0:
		return false
	case width%8 == 0:
		poolAVX2(&src[0], &dst[0], &argmax[0], width, 4, width/8, bands, width, &poolLanes[0])
	case width == 4 && bands%2 == 0:
		poolAVX2(&src[0], &dst[0], &argmax[0], width, 8, bands/2, 1, 0, &poolLanes[1])
	default:
		return false
	}
	return true
}

// convDWAVX2 is ConvGrad's dW kernel: for each of the filters, the non-zero
// coefficients of its row of G (groups*4 positions, the rows one after
// another from grad), each taken as +0 where the same element of out is +0
// (ReLUGrad's mask; out = grad masks nothing), are listed as positions in
// off and val, and every
// element of the filter's dW row then adds, for each listed position in
// order, the coefficient times the element of the position's window at pad
// + table[position] (bytes) it pairs with. A row is held in registers one
// group of four channels at a time (twelve runs of three, a spare lane
// each), then one channel at a time for chans % 4; wp and plane are in
// BYTES. off and val hold groups*4 entries.
//
//go:noescape
func convDWAVX2(grad *float64, groups int, pad *float64, table, off *int, val *float64, dw *float64, filters, chans, wp, plane int, out *float64)

// convListsAVX2 lists, for each of n positions, the filters whose
// coefficient is not zero: position p's column is grad[p], grad[p] + ldg, ...
// (ldg in BYTES), groups*4 + tail filters, each masked by out as convDWAVX2
// masks it, and its list, ldl BYTES after the previous one, holds the
// coefficients in val and f*ldw in off, in ascending f; cnt[p] is its length.
//
//go:noescape
func convListsAVX2(grad *float64, ldg, groups, tail, n, ldw int, off *int, val *float64, cnt *int, ldl int, out *float64)

// convDRowsAVX2 computes the D rows of n consecutive positions: position j's
// list is ldl BYTES after position j-1's, its count cnt[j], and its row, four
// channels (quad q) by nine k, is stored at dst + j*32 + q*qstep + k*kstep.
// Each element starts at +0 and adds wt[off[t] + q*288 + k*32 + lane] times
// val[t] over the list, the filter value the product's first source.
//
//go:noescape
func convDRowsAVX2(wt *float64, off *int, val *float64, cnt *int, ldl, n, quadEnd, qstep, kstep int, dst *float64)

// convGatherAVX2 computes one row of the input gradient, width pixels wide,
// four pixels by four channels at a time from the D rows of the three
// output rows r2, r1, r0 (ky = 2, 1, 0, each already offset to the first
// pixel's kx = 2 slot): each pixel from +0, adding ky = 2, 1, 0 and within
// each kx = 2, 1, 0, the slot of kx t BYTES times kx further. It stores the
// pixels at dst + c*plane bytes for channel c; a last group of four that
// would pass the row's end is taken at width-4 instead.
//
//go:noescape
func convGatherAVX2(r2, r1, r0 *float64, quads, qstep, t, width, plane int, dst *float64)

// directDW is ConvGrad's dW on the kernel, one call for every filter (P is
// a multiple of four, so the list takes whole groups of positions), the
// coefficients masked by out, or by grad itself where out is nil.
func (g *ConvGrad) directDW(pw padWalk, grad, out, pad, dw []float64) {
	nf, l := g.w.Rows, g.w.Cols
	p := len(grad) / nf
	out = maskOf(grad, out)
	_, _, _, _ = g.off[p-1], g.val[p-1], g.table[p-1], dw[nf*l-1]
	convDWAVX2(&grad[0], p/4, &pad[0], &g.table[0], &g.off[0], &g.val[0], &dw[0], nf, pw.chans, pw.wp*8, pw.plane*8, &out[0])
}

// maskOf is what the list kernels mask grad by: out, or grad itself, which
// masks nothing (a coefficient is +0 exactly where it is +0), where there is
// no out.
func maskOf(grad, out []float64) []float64 {
	if out == nil {
		return grad
	}
	return out[:len(grad)]
}

// convRowSumsAVX2 adds each of groups*4 rows of grad (ld BYTES apart,
// quads*4 elements each), masked by out as convDWAVX2 masks it, into its
// element of acc, left to right from the value in acc: addRowSumsGo's sums,
// four rows at a time, a lane each.
//
//go:noescape
func convRowSumsAVX2(grad, out *float64, groups, quads, ld int, acc *float64)

// directDB is ConvGrad's dB on the kernel, the rows four at a time (P is a
// multiple of four), the coefficients masked by out or, where out is nil,
// by grad itself; F % 4 rows take maskedRowSumsGo.
func (g *ConvGrad) directDB(grad, out, dB []float64) {
	nf := len(dB)
	p := len(grad) / nf
	out = maskOf(grad, out)
	if nf >= 4 {
		_, _ = out[len(grad)-1], dB[nf-1]
		convRowSumsAVX2(&grad[0], &out[0], nf/4, p/4, p*8, &dB[0])
	}
	f := nf &^ 3
	maskedRowSumsGo(grad[f*p:], out[f*p:], dB[f:])
}

// directDX is ConvGrad's input gradient on the kernels: the filter lists of
// every position, then image row by image row the D rows of the output rows
// it needs that are not in the ring yet (output row oy in ring row oy % 3),
// and the row's gather from the ring rows of oy = y+Pad-ky, or from the zero
// row where oy is off the output.
func (g *ConvGrad) directDX(grad, out, dIn []float64) {
	s, nf, l := g.s, g.w.Rows, g.w.Cols
	outH, outW := s.OutHeight(), s.OutWidth()
	p, ldl, quads, slots := outH*outW, listLen(nf), s.Channels/4, convSlots(s)
	rowLen, kstep := 9*s.Channels*slots, quads*slots*32
	_, _, _ = g.off[p*ldl-1], g.val[p*ldl-1], g.cnt[p-1]
	_, _, _ = g.ring[4*rowLen-1], g.wt[nf*l-1], dIn[s.Channels*s.Height*s.Width-1]
	out = maskOf(grad, out)
	convListsAVX2(&grad[0], p*8, nf/4, nf%4, p, l*8, &g.off[0], &g.val[0], &g.cnt[0], ldl*8, &out[0])
	next := 0 // the next output row to compute
	for y := 0; y < s.Height; y++ {
		for ; next <= min(y+s.Pad, outH-1); next++ {
			if next < y+s.Pad-2 {
				continue // no pixel reads it
			}
			at := next * outW
			convDRowsAVX2(&g.wt[0], &g.off[at*ldl], &g.val[at*ldl], &g.cnt[at], ldl*8, outW, quads*288,
				slots*32, kstep, &g.ring[next%3*rowLen+2*4])
		}
		var r [3]int // ring element of ky's first read
		for ky := range r {
			row := 3 // the zero row
			if oy := y + s.Pad - ky; oy >= 0 && oy < outH {
				row = oy % 3
			}
			r[ky] = row*rowLen + ky*3*kstep/8 + (s.Pad+2)*4
		}
		convGatherAVX2(&g.ring[r[2]], &g.ring[r[1]], &g.ring[r[0]], quads, slots*32, kstep-32, s.Width,
			s.Height*s.Width*8, &dIn[y*s.Width])
	}
}
