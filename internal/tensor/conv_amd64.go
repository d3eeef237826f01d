//go:build amd64 && !purego

package tensor

// lower3AVX2 is lowerRowsGo for a 3x3 kernel: n > 0 patch rows of chans > 0
// channels each, the walk's three strides in BYTES. raise3AVX2 is raiseRowsGo
// for the same walk.
//
//go:noescape
func lower3AVX2(dst, pad *float64, n, chans, step, wp, plane int)

//go:noescape
func raise3AVX2(pad, src *float64, n, chans, step, wp, plane int)

// lowerRows and raiseRows run one output row's patch rows on the kernel when
// the kernel is 3x3 (every conv of the zoo), on the Go loop otherwise.
func lowerRows(w padWalk, d, pad []float64) {
	if !useAVX2 || w.k != 3 {
		lowerRowsGo(w, d, pad)
		return
	}
	_, _ = d[w.n*w.chans*9-1], pad[(w.n-1)*w.step+(w.chans-1)*w.plane+2*w.wp+2]
	lower3AVX2(&d[0], &pad[0], w.n, w.chans, w.step*8, w.wp*8, w.plane*8)
}

func raiseRows(w padWalk, pad, d []float64) {
	if !useAVX2 || w.k != 3 {
		raiseRowsGo(w, pad, d)
		return
	}
	_, _ = d[w.n*w.chans*9-1], pad[(w.n-1)*w.step+(w.chans-1)*w.plane+2*w.wp+2]
	raise3AVX2(&pad[0], &d[0], w.n, w.chans, w.step*8, w.wp*8, w.plane*8)
}
