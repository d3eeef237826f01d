// Package graph is the mixing-topology layer of the decentralized engine: a
// Graph couples an undirected communication graph over n nodes with the
// doubly stochastic mixing matrix W that gossip averaging applies at each
// synchronization. The contract every Graph satisfies (checked at
// construction) is the standard one of decentralized-SGD analyses (Lian et
// al. 2017; Koloskova et al. 2019):
//
//   - W is symmetric:            W_ij == W_ji
//   - W is doubly stochastic:    every row and column sums to 1
//   - self-weights are positive: W_ii > 0
//   - the graph is connected (a Sequence only requires the UNION of its
//     graphs to be connected — the B-connectivity of time-varying analyses)
//
// Weights are Metropolis-Hastings, W_ij = 1/(1 + max(deg_i, deg_j)), which
// is symmetric and doubly stochastic for ANY simple graph and reduces to the
// uniform 1/(deg+1) neighborhood average on regular graphs — on the ring,
// exactly the (x_prev + x_self + x_next)/3 mix the engine has always used.
//
// Each row carries an explicit accumulation order (MixOrder) and a uniform
// flag (MixWeights returning nil): a uniform row must be mixed by summing
// the ordered values and dividing once by the count, NOT by accumulating
// w*x terms — (prev+self+next)/3 and 1/3*prev + 1/3*self + 1/3*next round
// differently, and the engine's bit-identity goldens pin the former. The
// ring constructor orders its rows [prev, self, next] for the same reason.
//
// The convergence rate of gossip averaging is governed by the spectral gap
// delta = 1 - lambda_2(W) (the second-largest eigenvalue modulus):
// consensus contracts by a factor (1 - delta) per round. SpectralGap
// estimates it by power iteration on W deflated against the all-ones
// eigenvector, and the cluster engine can adapt its CHOCO consensus step to
// it (gamma = sqrt(delta), clamped — see cluster.Config.AdaptGossipGamma).
package graph

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// Graph is an undirected mixing topology over n nodes. It is immutable
// after construction and therefore safe to share across goroutines.
type Graph struct {
	n    int
	name string
	adj  [][]int     // adj[i]: neighbor ids, constructor-fixed order
	mix  [][]int     // mix[i]: adj[i] plus i, in the row's accumulation order
	w    [][]float64 // w[i][k]: weight of mix[i][k]; nil row = uniform 1/len
	gap  float64     // 1 - lambda_2(W), estimated at construction
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// Name returns the constructor-assigned name (the spec syntax that builds
// this graph, e.g. "torus:4x4").
func (g *Graph) Name() string { return g.name }

// Neighbors returns node i's neighbor ids. The slice is graph-owned and
// must not be mutated.
func (g *Graph) Neighbors(i int) []int { return g.adj[i] }

// Degree returns node i's neighbor count.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// MaxDegree returns the largest node degree.
func (g *Graph) MaxDegree() int {
	mx := 0
	for _, a := range g.adj {
		if len(a) > mx {
			mx = len(a)
		}
	}
	return mx
}

// Adjacency returns the full neighbor table, indexed by node. It is
// graph-owned and must not be mutated; the delay model's per-edge round
// pricing consumes it directly (delaymodel.SampleDRound).
func (g *Graph) Adjacency() [][]int { return g.adj }

// MixOrder returns the nodes of row i's mix — i's neighborhood including i
// itself — in the exact order a mixer must accumulate them. The order is
// part of the bit-identity contract: the ring orders rows [prev, self,
// next], reproducing the legacy gossip arithmetic bit for bit.
func (g *Graph) MixOrder(i int) []int { return g.mix[i] }

// MixWeights returns the weight of each MixOrder(i) entry, or nil for a
// uniform row. A nil row MUST be mixed as (sum of ordered values)/count —
// one division, not per-term 1/k multiplies — which is both one rounding
// step more accurate and the legacy ring arithmetic.
func (g *Graph) MixWeights(i int) []float64 { return g.w[i] }

// Weight returns W_ij (including j == i). Zero for non-edges.
func (g *Graph) Weight(i, j int) float64 {
	for k, o := range g.mix[i] {
		if o == j {
			if g.w[i] == nil {
				return 1 / float64(len(g.mix[i]))
			}
			return g.w[i][k]
		}
	}
	return 0
}

// SpectralGap returns 1 - lambda_2(W), where lambda_2 is the second-largest
// eigenvalue modulus of the mixing matrix. It is estimated once at
// construction by power iteration on W - (1/n)*ones, so the call is free.
func (g *Graph) SpectralGap() float64 { return g.gap }

// String implements fmt.Stringer.
func (g *Graph) String() string { return fmt.Sprintf("%s[n=%d]", g.name, g.n) }

// build assembles a Graph from an adjacency table, computing
// Metropolis-Hastings weights, per-row uniformity, mix orders, and the
// spectral gap. mixOrder may be nil (rows default to ascending node ids
// with self in sorted position); constructors with a legacy accumulation
// order (the ring) pass it explicitly. The adjacency must describe a simple
// symmetric graph — a violation is a constructor bug and panics.
func build(name string, adj [][]int, mixOrder [][]int) *Graph {
	n := len(adj)
	g := &Graph{n: n, name: name, adj: adj}
	checkSimpleSymmetric(name, adj)
	g.mix = mixOrder
	if g.mix == nil {
		g.mix = make([][]int, n)
		for i, a := range adj {
			row := make([]int, 0, len(a)+1)
			row = append(row, a...)
			row = append(row, i)
			sort.Ints(row)
			g.mix[i] = row
		}
	}
	g.w = make([][]float64, n)
	for i, a := range adj {
		di := len(a)
		uniform := true
		for _, j := range a {
			if len(adj[j]) > di {
				uniform = false
				break
			}
		}
		if uniform {
			continue // w[i] stays nil: 1/(di+1) per entry, summed then divided
		}
		row := make([]float64, len(g.mix[i]))
		selfW := 1.0
		for k, o := range g.mix[i] {
			if o == i {
				continue
			}
			dj := len(adj[o])
			mx := di
			if dj > mx {
				mx = dj
			}
			row[k] = 1 / float64(1+mx)
			selfW -= row[k]
		}
		for k, o := range g.mix[i] {
			if o == i {
				row[k] = selfW
			}
		}
		g.w[i] = row
	}
	g.gap = spectralGap(g)
	return g
}

// Subgraph returns the induced subgraph on the active node set: edges
// between two active nodes survive in the parent's order, every inactive
// node is isolated — degree 0, whose exact-identity mixing semantics the
// gossip engines already honor — and node indices are PRESERVED, so
// replica arrays and delay-model tables need no remapping. Mix orders are
// the parent's rows filtered to the active members, keeping survivor
// arithmetic as close to the parent's accumulation order as the
// membership change allows; Metropolis weights are re-derived for the new
// degrees.
//
// The spectral gap is estimated over the ACTIVE block only: isolated
// nodes contribute identity rows whose eigenvalue 1 would otherwise pin
// lambda_2 and report a closed gap for a subgraph that mixes perfectly
// well among survivors. A disconnected induced subgraph is legal (gossip
// mixes within components); its active-block gap is then near 0, which
// AdaptiveGamma maps to the damped floor.
func (g *Graph) Subgraph(active []bool) *Graph {
	if len(active) != g.n {
		panic(fmt.Sprintf("graph: %s active mask covers %d of %d nodes", g.name, len(active), g.n))
	}
	nActive := 0
	for _, up := range active {
		if up {
			nActive++
		}
	}
	adj := make([][]int, g.n)
	mix := make([][]int, g.n)
	for i := range adj {
		if !active[i] {
			mix[i] = []int{i}
			continue
		}
		row := make([]int, 0, len(g.adj[i]))
		for _, j := range g.adj[i] {
			if active[j] {
				row = append(row, j)
			}
		}
		adj[i] = row
		mrow := make([]int, 0, len(g.mix[i]))
		for _, o := range g.mix[i] {
			if o == i || active[o] {
				mrow = append(mrow, o)
			}
		}
		mix[i] = mrow
	}
	sub := build(fmt.Sprintf("%s/active=%d", g.name, nActive), adj, mix)
	sub.gap = activeBlockGap(adj, active, nActive)
	return sub
}

// activeBlockGap estimates the spectral gap of the mixing matrix
// restricted to the active nodes, by compacting them into a standalone
// graph (indices renumbered 0..nActive-1) and reusing the construction
// estimator. Degenerate blocks (zero or one node) mix trivially: gap 1.
func activeBlockGap(adj [][]int, active []bool, nActive int) float64 {
	if nActive <= 1 {
		return 1
	}
	idx := make([]int, len(adj))
	k := 0
	for i, up := range active {
		if up {
			idx[i] = k
			k++
		}
	}
	cadj := make([][]int, 0, nActive)
	for i, up := range active {
		if !up {
			continue
		}
		row := make([]int, 0, len(adj[i]))
		for _, j := range adj[i] {
			row = append(row, idx[j])
		}
		cadj = append(cadj, row)
	}
	return build("active-block", cadj, nil).gap
}

// checkSimpleSymmetric panics if the adjacency is not a simple undirected
// graph: self-loops, duplicate neighbors, out-of-range ids, or asymmetric
// edges are constructor bugs, not runtime conditions.
func checkSimpleSymmetric(name string, adj [][]int) {
	n := len(adj)
	for i, a := range adj {
		seen := make(map[int]bool, len(a))
		for _, j := range a {
			if j < 0 || j >= n {
				panic(fmt.Sprintf("graph: %s node %d neighbor %d out of [0,%d)", name, i, j, n))
			}
			if j == i {
				panic(fmt.Sprintf("graph: %s node %d has a self-loop", name, i))
			}
			if seen[j] {
				panic(fmt.Sprintf("graph: %s node %d lists neighbor %d twice", name, i, j))
			}
			seen[j] = true
			back := false
			for _, k := range adj[j] {
				if k == i {
					back = true
					break
				}
			}
			if !back {
				panic(fmt.Sprintf("graph: %s edge (%d,%d) is not symmetric", name, i, j))
			}
		}
	}
}

// connected reports whether the union of the given adjacency tables (all
// over the same node set) is connected.
func connected(n int, adjs ...[][]int) bool {
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, adj := range adjs {
			for _, j := range adj[i] {
				if !seen[j] {
					seen[j] = true
					count++
					queue = append(queue, j)
				}
			}
		}
	}
	return count == n
}

// Connected reports whether the graph is connected. Every constructor in
// this package only produces connected graphs; the check is exported for
// tests and for Sequence's union validation.
func (g *Graph) Connected() bool { return connected(g.n, g.adj) }

// spectralGap estimates 1 - lambda_2(W) by power iteration on the deflated
// operator M = W - (1/n)*ones: W's dominant eigenpair (1, ones) is removed,
// so the iteration converges to the second-largest eigenvalue MODULUS of W.
// The start vector is a fixed seeded draw, making the estimate a pure
// function of the graph.
func spectralGap(g *Graph) float64 {
	n := g.n
	if n <= 1 {
		return 1
	}
	r := rng.New(0x5bd1e995 ^ uint64(n))
	v := make([]float64, n)
	y := make([]float64, n)
	for i := range v {
		v[i] = r.Float64() - 0.5
	}
	deflate(v)
	if !normalize(v) {
		return 1
	}
	lam := 0.0
	for it := 0; it < 4000; it++ {
		// y = W v, using the same row accumulation the mixer applies.
		for i := 0; i < n; i++ {
			s := 0.0
			if w := g.w[i]; w == nil {
				for _, o := range g.mix[i] {
					s += v[o]
				}
				s /= float64(len(g.mix[i]))
			} else {
				for k, o := range g.mix[i] {
					s += w[k] * v[o]
				}
			}
			y[i] = s
		}
		deflate(y)
		norm := 0.0
		for _, x := range y {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm < 1e-15 {
			return 1 // M annihilated v: lambda_2 is (numerically) zero
		}
		for i := range y {
			v[i] = y[i] / norm
		}
		if math.Abs(norm-lam) < 1e-13 {
			lam = norm
			break
		}
		lam = norm
	}
	gap := 1 - lam
	if gap < 0 {
		gap = 0
	}
	if gap > 1 {
		gap = 1
	}
	return gap
}

func deflate(v []float64) {
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for i := range v {
		v[i] -= mean
	}
}

func normalize(v []float64) bool {
	norm := 0.0
	for _, x := range v {
		norm += x * x
	}
	norm = math.Sqrt(norm)
	if norm < 1e-15 {
		return false
	}
	for i := range v {
		v[i] /= norm
	}
	return true
}

// Ring returns the n-cycle with the legacy gossip mix: row order
// [prev, self, next] (m >= 3), [self, other] (m = 2), identity (m = 1).
// Driving the engine with Ring(m) is bit-identical to its built-in ring
// path — the safety net the goldens pin.
func Ring(n int) *Graph {
	if n < 1 {
		panic("graph: ring needs at least one node")
	}
	adj := make([][]int, n)
	mix := make([][]int, n)
	for i := 0; i < n; i++ {
		switch {
		case n == 1:
			mix[i] = []int{i}
		case n == 2:
			adj[i] = []int{1 - i}
			mix[i] = []int{i, 1 - i}
		default:
			prev, next := (i-1+n)%n, (i+1)%n
			adj[i] = []int{prev, next}
			mix[i] = []int{prev, i, next}
		}
	}
	return build("ring", adj, mix)
}

// Complete returns the fully connected graph: uniform 1/n weights, so one
// gossip round IS the exact full average (the engine's densest baseline).
func Complete(n int) *Graph {
	if n < 1 {
		panic("graph: complete needs at least one node")
	}
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		row := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, j)
			}
		}
		adj[i] = row
	}
	return build("complete", adj, nil)
}

// Star returns the hub-and-leaves graph (hub = node 0). It is the one
// shipped constructor with non-uniform Metropolis rows: leaves keep
// self-weight 1 - 1/n, so consensus is slow — the spectral-gap worst case
// the ablation contrasts against.
func Star(n int) *Graph {
	if n < 1 {
		panic("graph: star needs at least one node")
	}
	adj := make([][]int, n)
	hub := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		adj[i] = []int{0}
		hub = append(hub, i)
	}
	adj[0] = hub
	return build("star", adj, nil)
}

// Torus returns the rows x cols wraparound grid. Wraparound neighbors that
// coincide (a 1- or 2-wide dimension) are deduplicated, so Torus(1, n) is
// the n-cycle and Torus(2, 2) the 4-cycle; for rows, cols >= 3 every node
// has degree 4 and uniform weight 1/5.
func Torus(rows, cols int) *Graph {
	if rows < 1 || cols < 1 {
		panic("graph: torus needs positive dimensions")
	}
	n := rows * cols
	adj := make([][]int, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			cand := []int{
				((r-1+rows)%rows)*cols + c,
				((r+1)%rows)*cols + c,
				r*cols + (c-1+cols)%cols,
				r*cols + (c+1)%cols,
			}
			sort.Ints(cand)
			row := make([]int, 0, 4)
			for _, j := range cand {
				if j == i {
					continue
				}
				if len(row) > 0 && row[len(row)-1] == j {
					continue
				}
				row = append(row, j)
			}
			adj[i] = row
		}
	}
	return build(fmt.Sprintf("torus:%dx%d", rows, cols), adj, nil)
}

// Expander returns a degree-<=4 circulant expander: node i connects to
// i +- 1 and i +- k (mod n) with k = max(2, floor(sqrt(n))). The +-1
// offsets keep it connected at every n; the long chords give it a spectral
// gap far better than the ring's O(1/n^2) at the same sparsity.
func Expander(n int) *Graph {
	if n < 1 {
		panic("graph: expander needs at least one node")
	}
	k := int(math.Sqrt(float64(n)))
	if k < 2 {
		k = 2
	}
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		cand := []int{(i - 1 + n) % n, (i + 1) % n, (i - k%n + n) % n, (i + k) % n}
		sort.Ints(cand)
		row := make([]int, 0, 4)
		for _, j := range cand {
			if j == i {
				continue
			}
			if len(row) > 0 && row[len(row)-1] == j {
				continue
			}
			row = append(row, j)
		}
		adj[i] = row
	}
	return build("expander", adj, nil)
}

// RandomRegular returns a uniformly random simple d-regular graph on n
// nodes via the configuration (pairing) model, seeded: d copies of every
// node are shuffled and paired, and pairings with self-loops or duplicate
// edges are rejected and redrawn. Requires 1 <= d < n and even n*d. The
// draw retries until the graph is also connected, so the result always
// satisfies the mixing contract; the sampled topology is a pure function
// of (n, d, seed).
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	if n < 2 || d < 1 || d >= n {
		return nil, fmt.Errorf("graph: random-regular needs 1 <= degree < nodes, got degree %d on %d nodes", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: random-regular needs even n*d, got %d*%d", n, d)
	}
	r := rng.New(seed)
	stubs := make([]int, n*d)
	for attempt := 0; attempt < 1000; attempt++ {
		for i := range stubs {
			stubs[i] = i / d
		}
		r.ShuffleInts(stubs)
		adj := make([][]int, n)
		ok := true
	pairing:
		for p := 0; p < len(stubs); p += 2 {
			a, b := stubs[p], stubs[p+1]
			if a == b {
				ok = false
				break
			}
			for _, j := range adj[a] {
				if j == b {
					ok = false
					break pairing
				}
			}
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		if !ok || !connected(n, adj) {
			continue
		}
		for i := range adj {
			sort.Ints(adj[i])
		}
		return build(fmt.Sprintf("regular:%d@%d", d, seed), adj, nil), nil
	}
	return nil, fmt.Errorf("graph: no connected simple %d-regular graph on %d nodes after 1000 draws (seed %d)", d, n, seed)
}
