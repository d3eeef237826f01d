package opt

// Global is the slow/global momentum applied at sync points (BMUF /
// SlowMo; the generalization of the paper's Sec 5.3.2 block momentum from
// FullAveraging to every barrier strategy). It filters the sync-point
// displacement pre-post through a heavy-ball buffer:
//
//	u = beta*u + (pre - post)
//	dst = pre - u
//
// the BMUF form (slow learning rate 1), which is the legacy ublock
// arithmetic the blockmom golden pins. The centralized strategies keep one
// Global on the shared reference; gossip strategies keep one per node,
// filtering each node's own mixing displacement.
type Global struct {
	Beta float64
	u    []float64
}

// NewGlobal builds a global-momentum buffer over dim parameters.
func NewGlobal(beta float64, dim int) *Global {
	return &Global{Beta: beta, u: make([]float64, dim)}
}

// Apply folds the displacement pre-post into the buffer and writes the
// filtered post-sync state into dst. dst may alias pre.
func (g *Global) Apply(pre, post, dst []float64) {
	for i := range g.u {
		g.u[i] = g.Beta*g.u[i] + (pre[i] - post[i])
		dst[i] = pre[i] - g.u[i]
	}
}

// Renormalize scales the buffer — the dynamic-membership correction: on a
// round whose active set changed, the buffered dispersion was accumulated
// over the previous population and must be rescaled to the surviving
// fraction before it is mixed again (factor 1 is a no-op, taken on every
// churn-free round).
func (g *Global) Renormalize(factor float64) {
	if factor == 1 {
		return
	}
	for i := range g.u {
		g.u[i] *= factor
	}
}

// Reset zeroes the buffer.
func (g *Global) Reset() {
	for i := range g.u {
		g.u[i] = 0
	}
}

// Buf exposes the raw buffer (tests and rejoin reconciliation).
func (g *Global) Buf() []float64 { return g.u }
