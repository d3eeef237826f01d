package cluster

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Strategy selects how replicas mix at each synchronization point. The
// paper's conclusion notes that adaptive communication extends directly to
// decentralized SGD (Lian et al. 2017) and Elastic-Averaging SGD (Zhang et
// al. 2015); these variants implement those extensions so AdaComm can drive
// their synchronization period too.
//
// Both variants ship every message through a compressor and report
// per-worker payload bytes through the communication layer. Gossip is
// CHOCO-SGD (Koloskova et al. 2019): every node i maintains estimate vectors
// x̂_j for itself and its graph neighbors, updated ONLY by applying the
// messages q_j = C(x_j - x̂_j) that travel the wire, and mixes via
//
//	x_i <- x_i + gamma * sum_j W_ij (x̂_j - x̂_i)
//
// with the mixing matrix W of the active graph.Graph (the uniform ring by
// default; Config.Topology selects any graph spec, including seeded
// time-varying sequences) and the consensus step size Config.GossipGamma.
// No quantity in the algorithm requires state a real decentralized node
// could not reconstruct from its own messages — there is no shared
// reference vector. Elastic averaging ships each replica's displacement
// from the center. Their rounds keep the legacy single-overlapped-hop
// pricing (collective Topology values are rejected for them), so only the
// message sizes — not hop multipliers — differ from full averaging.
//
// Uncompressed IS the identity wire here: with the zero Compress spec every
// worker's compressor is compress.Identity{} (built without drawing a
// stream), a lossless gossip node ships x_i itself so x̂_i == x_i and the
// gamma = 1 mix is the plain gossip average bit for bit, and the identity's
// decoded elastic displacement is x_i - z exactly. One consequence: a
// diverged replica's ±Inf coordinate mixes to NaN, because x - x̂ is NaN at
// Inf; the loss is non-finite either way. Uncompressed and identity differ
// in two places only, both outside this file: full averaging's raw mean
// (averageFull), and the parameter server's free pull.
type Strategy int

const (
	// FullAveraging is PASGD's all-node model average (paper eq 3).
	FullAveraging Strategy = iota
	// RingGossip is decentralized gossip averaging: each worker mixes with
	// its neighbors on the active mixing graph, x_i <- sum_j W_ij x_j. The
	// default graph is the ring — x_i <- (x_{i-1} + x_i + x_{i+1}) / 3, and
	// at m = 2 the single neighbor appears once: x_i <- (x_i + x_other) / 2
	// — and Config.Topology swaps in any graph spec (torus, expander,
	// random-regular, time-varying sequences). No global model exists;
	// evaluation uses the replica mean — or, under compression, the mean of
	// the wire-reconstructed CHOCO estimates — matching the "averaged
	// model" convention of decentralized-SGD analyses.
	RingGossip
	// ElasticAveraging keeps a center variable z: at each sync, workers
	// are pulled toward z with strength alpha and z moves toward the
	// replica mean with strength beta, both 0.5 (EASGD, Zhang et al. 2015).
	ElasticAveraging
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case FullAveraging:
		return "full-averaging"
	case RingGossip:
		return "ring-gossip"
	case ElasticAveraging:
		return "elastic-averaging"
	}
	return "unknown-strategy"
}

// ParseStrategy parses a strategy flag value: "full"/"full-averaging",
// "ring"/"ring-gossip", or "elastic"/"elastic-averaging".
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "full", "full-averaging":
		return FullAveraging, nil
	case "ring", "ring-gossip":
		return RingGossip, nil
	case "elastic", "elastic-averaging":
		return ElasticAveraging, nil
	}
	return 0, fmt.Errorf("cluster: unknown strategy %q (want full | ring | elastic)", s)
}

// gossipReplica is the view of one worker the gossip protocol is allowed to
// touch: the node's own parameter vector, read when forming its message and
// read-modified when applying its own mix. The engine wires each worker's
// network in directly; the oracle-free invariant test swaps in guarded
// implementations that panic on out-of-band (cross-node or extra-pass)
// reads, which is what pins the no-shared-reference property.
type gossipReplica interface {
	Params() []float64
}

// gossipState is the engine-owned CHOCO-SGD bookkeeping of ring gossip.
// hat[j] is the estimate x̂_j: conceptually node j and each of its
// graph neighbors hold a copy each, but since every holder applies the
// identical wire update q_j to the identical previous value, the copies can
// never diverge and the engine stores one canonical vector per node (the
// invariant test exercises exactly this wire-only derivability). Neighbor
// sets come from the engine's active mixing graph, not from this state, so
// time-varying sequences need no estimate reshuffling: every node's estimate
// exists every round, and an inactive edge simply goes unread.
type gossipState struct {
	gamma    float64     // consensus step size (Config.GossipGamma)
	lossless bool        // lossless wire: nodes ship x_i, estimates pin exactly
	hat      [][]float64 // hat[j] = x̂_j, updated only from wire messages
	hatBack  []float64   // backing array for hat, the rows ChocoMix reads
	rec      []float64   // decode scratch for the message in flight
	proj     [][]float64 // projected post-mix estimates (evaluation model)
	projBack []float64   // backing array for proj
	nodes    []gossipReplica
}

// newGossipState builds the estimate state: every x̂_j starts at the initial
// broadcast model (init), which all nodes know, so the state stays
// wire-derivable from round zero.
func newGossipState(m int, init []float64, gamma float64, lossless bool) *gossipState {
	dim := len(init)
	g := &gossipState{
		gamma:    gamma,
		lossless: lossless,
		hat:      make([][]float64, m),
		hatBack:  make([]float64, m*dim),
		rec:      make([]float64, dim),
		proj:     make([][]float64, m),
		projBack: make([]float64, m*dim),
		nodes:    make([]gossipReplica, m),
	}
	for j := 0; j < m; j++ {
		g.hat[j] = g.hatBack[j*dim : (j+1)*dim]
		copy(g.hat[j], init)
		g.proj[j] = g.projBack[j*dim : (j+1)*dim]
		copy(g.proj[j], init)
	}
	return g
}

// nextGossipGraph returns the mixing graph for the synchronization being
// executed, publishes its adjacency for the round's per-edge delay pricing
// (roundTime runs after the mix, so the priced adjacency always matches the
// sync just performed), and advances the sync counter that drives
// time-varying sequences. The returned index selects the per-graph adaptive
// gamma. It consumes no randomness, so graph topologies leave the engine's
// RNG streams untouched.
func (e *Engine) nextGossipGraph() (*graph.Graph, int) {
	idx := e.gseq.Index(e.syncs)
	g := e.gseq.Graph(idx)
	e.activeAdj = g.Adjacency()
	e.syncs++
	return g, idx
}

// averageRing is one CHOCO-SGD gossip round on the active mixing graph.
// Phase 1: every node compresses its delta from its OWN estimate,
// q_i = C(x_i - x̂_i), and multicasts it to its graph neighbors; every holder
// of x̂_i — the node and its neighbors alike — applies the identical wire
// update x̂_i += q̂_i, so the engine's canonical copy stands in for all of
// them. Phase 2: each node mixes toward its neighborhood's weighted estimate
// average,
//
//	x_i <- x_i + gamma * (sum_j W_ij x̂_j - x̂_i),
//
// computed as gamma*mix + (x_i - gamma*x̂_i) so that a lossless wire
// (x̂_i == x_i exactly, see below) at gamma = 1 is the plain gossip average
// bit for bit (on the default ring, the historic (x_prev + x_i + x_next)/3).
// One tensor.ChocoMix call per node does the mix, the post-mix replica and
// the projected estimate in one pass over hatBack's rows; its doc comment
// holds the arithmetic contract (MixOrder's order, ONE division for a
// uniform row).
// Finally the evaluation model is refreshed as the mean of the projected
// post-mix ESTIMATES — every quantity in the round, including the one
// evaluation observes, is derivable from the wire.
//
// A lossless wire (compress.Spec.Lossless: None, or identity on a float64
// wire) gets a protocol refinement: since C(x_i - x̂_i) costs exactly the
// 8*dim wire bytes of the parameters themselves, the node ships x_i directly
// and holders assign rather than accumulate. That pins x̂_i to x_i exactly
// instead of up to the rounding of x̂_i + fl(x_i - x̂_i), which is what makes
// uncompressed gossip this same round rather than a path of its own (at
// m = 3 the ring mix is the global mean, the "ring == full averaging"
// anchor).
func (e *Engine) averageRing() {
	gr, idx := e.activeGossipGraph()
	g := e.gossip
	maxBytes := 0
	for i, node := range g.nodes {
		if e.fltDown[i] {
			// Down nodes send nothing; their estimates (and compressor
			// streams) freeze with them until reconcile re-pins them.
			e.repBytes[i] = 0
			continue
		}
		params := node.Params()
		if e.ext {
			// The wire covers the synced optimizer state: estimates,
			// deltas, and payload accounting all run over the extended
			// vector, through the same compressor and wire narrowing.
			params = e.loadExt(i)
		}
		// The lossless message is a borrowed view of the parameters; it must
		// never reach wireMsg, whose arrays CompressInto overwrites.
		msg := compress.Message{Dim: e.xdim, Enc: compress.EncDense, Dense: params}
		if !g.lossless {
			tensor.Sub(e.deltaBuf, params, g.hat[i])
			if err := e.comps[i].CompressInto(e.deltaBuf, &e.wireMsg); err != nil {
				panic(fmt.Sprintf("cluster: worker %d compress: %v", i, err))
			}
			msg = e.wireMsg
		}
		up, err := e.com.PushMulti(i, gr.Neighbors(i), msg, g.rec)
		if err != nil {
			panic(fmt.Sprintf("cluster: worker %d push: %v", i, err))
		}
		if g.lossless {
			copy(g.hat[i], g.rec) // x̂_i = decoded x_i, exact
		} else {
			tensor.Axpy(1, g.rec, g.hat[i]) // x̂_i += decoded delta
		}
		e.repBytes[i] = up
		if up > maxBytes {
			maxBytes = up
		}
	}
	gamma := g.gamma
	if e.gammas != nil {
		gamma = e.gammas[idx]
		if e.fltNActive < e.m {
			// AdaptGossipGamma re-adapts on every membership change: the
			// consensus step follows the ACTIVE subgraph's spectral gap.
			gamma = e.subGamma
		}
	}
	for i, node := range g.nodes {
		if e.fltDown[i] {
			continue
		}
		dst := node.Params()
		if e.ext {
			dst = e.extWork[i] // loaded (and current) since phase 1
		}
		hs := g.hat[i]
		prj := g.proj[i]
		if gr.Degree(i) == 0 {
			// m == 1: nothing to mix with. The mix IS x̂_i, and the
			// identity must stay exact — gamma*x̂ + (x - gamma*x̂) is not
			// a bitwise no-op.
			copy(prj, hs)
			e.workers[i].opt.SyncReset()
			continue
		}
		post := e.avgBuf
		tensor.ChocoMix(post, prj, dst, g.hatBack, i, gr.MixOrder(i), gr.MixWeights(i), gamma)
		if e.gmoms != nil {
			// Per-node slow momentum filters the replica's own mixing
			// displacement (parameter block only). On a lossy wire the
			// projection stays the wire-derived estimate of the plain
			// mix, which the estimate protocol self-corrects toward on
			// the next round's delta; on a lossless wire x̂_i IS x_i, so
			// the projection is the filtered replica itself.
			e.gmoms[i].Apply(dst[:e.dim], post[:e.dim], post[:e.dim])
			if g.lossless {
				copy(prj[:e.dim], post[:e.dim])
			}
		}
		e.storeExt(i, post)
		e.workers[i].opt.SyncReset()
	}
	e.lastReport = comm.Report{Bytes: e.repBytes, Max: maxBytes}
	// The evaluation model is the mean of the PROJECTED post-mix estimates
	// x̃_i = x̂_i + gamma*(mix_i - x̂_i): every term comes off the wire, and
	// the projection applies the same mixing expression the replicas do, so
	// on a lossless wire (x̂_i == x_i exactly) the evaluated model is the
	// post-mix replica mean. The mean covers the active estimates (average()
	// already guaranteed at least one) and refreshes the synced-state
	// reference too.
	k := 0
	for i := range g.proj {
		if e.fltActive[i] {
			e.meanVecs[k] = g.proj[i]
			k++
		}
	}
	tensor.Mean(e.extGlobal, e.meanVecs[:k]...)
}

// averageElastic applies the EASGD update: x_i <- x_i - alpha(x_i - z),
// z <- z + (beta/m) * sum_i (x_i - z), both pull strengths 0.5. The center z
// lives in e.global. Each worker ships its displacement x_i - z as a wire
// message over the star; worker and center both apply the RECONSTRUCTED
// displacement, so the two sides stay consistent. Uncompressed, the message
// is the identity's, whose decoded displacement is x_i - z exactly.
func (e *Engine) averageElastic() {
	const alpha, beta = 0.5, 0.5
	centerPull := e.pullBuf
	for j := range centerPull {
		centerPull[j] = 0
	}
	maxBytes := 0
	for i, w := range e.workers {
		if e.fltDown[i] {
			e.repBytes[i] = 0 // down replicas neither push nor get pulled
			continue
		}
		p := w.model.Params()
		tensor.Sub(e.deltaBuf, p, e.global)
		if err := e.comps[i].CompressInto(e.deltaBuf, &e.wireMsg); err != nil {
			panic(fmt.Sprintf("cluster: worker %d compress: %v", i, err))
		}
		up, err := e.com.Push(i, e.wireMsg, e.deltaBuf)
		if err != nil {
			panic(fmt.Sprintf("cluster: worker %d push: %v", i, err))
		}
		if e.gmoms == nil {
			for j := range p {
				p[j] -= alpha * e.deltaBuf[j]
				centerPull[j] += e.deltaBuf[j]
			}
		} else {
			// Per-node slow momentum filters the node's own alpha-pull
			// displacement; the center update keeps the raw pull.
			post := e.avgBuf[:e.dim]
			for j := range p {
				post[j] = p[j] - alpha*e.deltaBuf[j]
				centerPull[j] += e.deltaBuf[j]
			}
			e.gmoms[i].Apply(p, post, p)
		}
		e.repBytes[i] = up
		if up > maxBytes {
			maxBytes = up
		}
		w.opt.SyncReset()
	}
	// The center moves toward the SURVIVORS' mean.
	tensor.Axpy(beta/float64(e.fltNActive), centerPull, e.global)
	e.lastReport = comm.Report{Bytes: e.repBytes, Max: maxBytes}
}
