//go:build amd64 && !purego

package tensor

// chocoMixAVX2 is chocoMixGo over the first n > 0 coordinates, n a multiple
// of 16, of rows dim wide: it reads rows order[0..len-1] of hat and row self,
// and ws is nil for a uniform row.
//
//go:noescape
func chocoMixAVX2(post, prj, x, hat *float64, dim, self int, order *int, sources int, ws *float64, gamma float64, n int)

// chocoMixBulk runs the kernel over the leading blocks of sixteen
// coordinates and returns where the Go loop takes over.
func chocoMixBulk(post, prj, x, hat []float64, self int, order []int, ws []float64, gamma float64) int {
	n := len(x) &^ 15
	if !useAVX2 || n == 0 {
		return 0
	}
	var w *float64
	if ws != nil {
		w = &ws[0]
	}
	chocoMixAVX2(&post[0], &prj[0], &x[0], &hat[0], len(x), self, &order[0], len(order), w, gamma, n)
	return n
}
