package tensor

import "fmt"

// ChocoMix is one node's CHOCO gossip mix (internal/cluster's averageRing):
// with mix the node's row of the mixing matrix over the estimates,
//
//	post = gamma*mix + (x - gamma*x̂)
//	prj  = gamma*mix + (x̂ - gamma*x̂)
//
// for the node's replica x and its own estimate x̂, in that order and with
// that operand order. The estimates are the rows of hat, dim = len(x) wide:
// row r is hat[r*dim : (r+1)*dim], and x̂ is row self. The mix reads the rows
// order names, in that order — graph.MixOrder, part of the bit-identity
// contract:
//
//   - a uniform row (ws == nil) is the first row, plus each next one added to
//     the running sum, then divided ONCE by len(order): on the ring exactly
//     ((prev + self) + next) / 3. Never a multiply by a reciprocal;
//   - a weighted row is ws[0]*row0, then += ws[k]*row_k in order, each term a
//     rounded product and then a rounded add, never fused.
//
// The AVX2 kernel (mix_amd64.s) does all of it in one pass over the
// coordinates, and the mix never reaches memory; the Go loop below is its
// fallback, finishes the len % 16 coordinates it leaves, and is its oracle.
// Nothing is allocated. post and prj must share no memory with x, hat or
// each other. It panics unless post, prj and x have one length, order is
// non-empty, ws is nil or as long as order, and every row order and self
// name lies inside hat.
func ChocoMix(post, prj, x, hat []float64, self int, order []int, ws []float64, gamma float64) {
	dim := len(x)
	if len(post) != dim || len(prj) != dim {
		panic(fmt.Sprintf("tensor: ChocoMix has %d post and %d prj coordinates for %d", len(post), len(prj), dim))
	}
	if len(order) == 0 || (ws != nil && len(ws) != len(order)) {
		panic(fmt.Sprintf("tensor: ChocoMix has %d rows and %d weights", len(order), len(ws)))
	}
	inside := func(r int) bool { return r >= 0 && (dim == 0 || r < len(hat)/dim) }
	if !inside(self) {
		panic(fmt.Sprintf("tensor: ChocoMix's own row %d is outside hat", self))
	}
	for _, r := range order {
		if !inside(r) {
			panic(fmt.Sprintf("tensor: ChocoMix reads row %d, outside hat", r))
		}
	}
	n := chocoMixBulk(post, prj, x, hat, self, order, ws, gamma)
	chocoMixGo(post, prj, x, hat, n, self, order, ws, gamma)
}

// chocoMixGo is ChocoMix over coordinates lo..dim-1, in passes: the mix
// accumulates in post one source row at a time, then one pass writes prj and
// post from it (a fused element-major Go loop measured slower).
func chocoMixGo(post, prj, x, hat []float64, lo, self int, order []int, ws []float64, gamma float64) {
	dim := len(x)
	post, prj, x = post[lo:dim], prj[lo:dim], x[lo:dim]
	row := func(r int) []float64 { return hat[r*dim+lo : (r+1)*dim] }
	first := row(order[0])
	if ws == nil {
		copy(post, first)
		for _, o := range order[1:] {
			src := row(o)
			src = src[:len(post)]
			for j := range post {
				post[j] += src[j]
			}
		}
		count := float64(len(order))
		for j := range post {
			post[j] /= count
		}
	} else {
		w0 := ws[0]
		first = first[:len(post)]
		for j := range post {
			post[j] = w0 * first[j]
		}
		for k := 1; k < len(order); k++ {
			wk, src := ws[k], row(order[k])
			src = src[:len(post)]
			for j := range post {
				post[j] += wk * src[j]
			}
		}
	}
	hs := row(self)
	hs, prj, x = hs[:len(post)], prj[:len(post)], x[:len(post)]
	for j, mix := range post {
		prj[j] = gamma*mix + (hs[j] - gamma*hs[j])
		post[j] = gamma*mix + (x[j] - gamma*hs[j])
	}
}
