package tensor

// The *Naive kernels are the canonical reference implementations the blocked
// kernels in blocked.go must match bit for bit. They define the canonical
// reduce order: every output element starts from its beta-scaled destination
// (beta == 0 overwrites) and accumulates terms in ascending reduction index,
// one addition per term. Parity tests compare against these, and cmd/bench
// times GemmNaive and GemmTBNaive beside the kernels, so they must stay
// byte-for-byte what the repository shipped before the blocked rewrite.
//
// The products come in two forms, and the form decides what a zero does:
//
//   - Dot form (GemmTB): an element is alpha*s + beta*c, where s sums
//     EVERY term from +0. No term is skipped: a zero coefficient still
//     multiplies its partner, so 0 x Inf or 0 x NaN poisons the sum, and s is
//     never -0.
//   - Axpy form (Gemm, GemmTA): an element starts from beta*c and
//     adds (alpha*a)*b term by term; a term whose coefficient alpha*a is
//     exactly zero (either sign) is SKIPPED, so it hides an Inf or NaN
//     partner and leaves a -0 destination -0. The coefficient operand is A.
//
// The blocked kernels turn the skip into speed (blocked.go: a row's non-zero
// coefficients are compressed to a list once, then only those terms are
// issued), so which operand a caller puts in the coefficient seat matters.
// nn.Conv2D, per sample, with W the F x L filters, X the P x L lowered
// patches and G the F x P output gradient:
//
//   - Forward, out = W*X^T, is GemmTB(W, X) in Convolve's lowered product:
//     dot form, as the P x F product GemmTB(X, W) it replaces was. Dot
//     multiplies term by term and a*b == b*a bit for bit, so swapping the
//     operands only transposes the result — into the channel-major order
//     the output row already has. Convolve's direct kernel sums the same
//     terms in the same order without building X.
//   - Backward, dW += G*X, is Gemm(G, X), and dX = G^T*W is GemmTA(G, W):
//     axpy form with G as the coefficient operand, term for term the
//     GemmTA(G^T, X) and Gemm(G^T, W) they replace (same products, same
//     ascending position/filter order, same skip on G == 0). G is what ReLU
//     and max-pooling fill with exact zeros, so the skip lands where the
//     zeros are. ConvGrad runs these two where it lowers; its kernels list
//     G's non-zero coefficients and sum the same terms in the same order
//     without building X or G^T*W's patch matrix.

// GemmNaive is the reference Gemm: C = alpha*A*B + beta*C.
func GemmNaive(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("tensor: Gemm dimension mismatch")
	}
	if beta == 0 {
		Zero(c.Data)
	} else if beta != 1 {
		for i := range c.Data {
			c.Data[i] *= beta
		}
	}
	for i := 0; i < a.Rows; i++ {
		crow := c.Row(i)
		arow := a.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := alpha * arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += aik * bv
			}
		}
	}
}

// GemmTANaive is the reference GemmTA: C = alpha*A^T*B + beta*C.
func GemmTANaive(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic("tensor: GemmTA dimension mismatch")
	}
	if beta == 0 {
		Zero(c.Data)
	} else if beta != 1 {
		for i := range c.Data {
			c.Data[i] *= beta
		}
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			aik := alpha * av
			if aik == 0 {
				continue
			}
			crow := c.Row(i)
			for j, bv := range brow {
				crow[j] += aik * bv
			}
		}
	}
}

// GemmTBNaive is the reference GemmTB: C = alpha*A*B^T + beta*C.
func GemmTBNaive(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("tensor: GemmTB dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for j := 0; j < b.Rows; j++ {
			s := Dot(arow, b.Row(j))
			if beta == 0 {
				crow[j] = alpha * s
			} else {
				crow[j] = alpha*s + beta*crow[j]
			}
		}
	}
}
