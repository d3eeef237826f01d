package graph

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Sequence is a (possibly time-varying) schedule of mixing graphs: graph
// k is active for Hold consecutive synchronizations, cycling. A static
// topology is the one-graph sequence. Time-varying analyses require
// B-connectivity — the union of any B consecutive graphs connected; since
// every constructor here produces connected graphs, each sync's graph
// already is, and NewSequence additionally validates the union so a future
// disconnected-per-round constructor cannot slip through.
type Sequence struct {
	graphs []*Graph
	hold   int
	name   string
}

// Static wraps a single graph as a one-element sequence.
func Static(g *Graph) *Sequence {
	return &Sequence{graphs: []*Graph{g}, hold: 1, name: g.Name()}
}

// NewSequence builds a cyclic schedule holding each graph for hold
// consecutive synchronizations. All graphs must share a node count and
// their union must be connected.
func NewSequence(hold int, graphs ...*Graph) (*Sequence, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("graph: empty sequence")
	}
	if hold < 1 {
		return nil, fmt.Errorf("graph: sequence hold %d (want >= 1)", hold)
	}
	n := graphs[0].N()
	names := make([]string, len(graphs))
	adjs := make([][][]int, len(graphs))
	for i, g := range graphs {
		if g.N() != n {
			return nil, fmt.Errorf("graph: sequence mixes %d and %d nodes", n, g.N())
		}
		names[i] = g.Name()
		adjs[i] = g.adj
	}
	if !connected(n, adjs...) {
		return nil, fmt.Errorf("graph: sequence union is not connected")
	}
	return &Sequence{
		graphs: graphs,
		hold:   hold,
		name:   fmt.Sprintf("varying:%s@B=%d", strings.Join(names, ","), hold),
	}, nil
}

// N returns the shared node count.
func (s *Sequence) N() int { return s.graphs[0].N() }

// Len returns the number of distinct graphs in the cycle.
func (s *Sequence) Len() int { return len(s.graphs) }

// Varying reports whether the active graph ever changes.
func (s *Sequence) Varying() bool { return len(s.graphs) > 1 }

// Name returns the sequence's spec syntax.
func (s *Sequence) Name() string { return s.name }

// Index returns the cycle position active at the given synchronization
// count (0-based).
func (s *Sequence) Index(sync int) int {
	if len(s.graphs) == 1 {
		return 0
	}
	return (sync / s.hold) % len(s.graphs)
}

// At returns the graph active at the given synchronization count.
func (s *Sequence) At(sync int) *Graph { return s.graphs[s.Index(sync)] }

// Graph returns the graph at cycle position idx.
func (s *Sequence) Graph(idx int) *Graph { return s.graphs[idx] }

// SpecForms enumerates the spec grammar for error messages and usage text.
const SpecForms = "ring|star|complete|expander|torus:RxC|regular:D[@SEED]|varying:SPEC,SPEC,...[@B=N]"

// Spec is a parsed, not-yet-instantiated topology description: the node
// count is bound later (Build), so one flag value can describe a family —
// "ring" works at any m, while "torus:4x4" pins m = 16 and Build rejects a
// mismatch. A Spec is immutable after parsing and safe to share.
type Spec struct {
	raw    string
	kind   string // ring|star|complete|expander|torus|regular|varying
	rows   int    // torus
	cols   int    // torus
	degree int    // regular
	seed   uint64 // regular
	parts  []*Spec
	hold   int // varying: syncs each part stays active
}

// Kind returns the spec's constructor name.
func (sp *Spec) Kind() string { return sp.kind }

// String returns the original spec syntax.
func (sp *Spec) String() string { return sp.raw }

// ParseSpec parses the graph-spec grammar (SpecForms):
//
//	ring                 the n-cycle (the legacy gossip topology)
//	star                 hub-and-leaves, hub = node 0
//	complete             fully connected (gossip == exact full averaging)
//	expander             circulant with +-1 and +-floor(sqrt(n)) chords
//	torus:RxC            R x C wraparound grid; pins m = R*C
//	regular:D[@SEED]     seeded random simple D-regular graph (default seed 1)
//	varying:...[@B=N]    cyclic time-varying sequence of comma-separated
//	                     specs, each held for N syncs (default 1)
func ParseSpec(s string) (*Spec, error) {
	switch s {
	case "ring", "star", "complete", "expander":
		return &Spec{raw: s, kind: s}, nil
	}
	if rest, ok := strings.CutPrefix(s, "torus:"); ok {
		rs, cs, ok := strings.Cut(rest, "x")
		if !ok {
			return nil, fmt.Errorf("graph: torus spec %q needs ROWSxCOLS", s)
		}
		rows, err1 := strconv.Atoi(rs)
		cols, err2 := strconv.Atoi(cs)
		if err1 != nil || err2 != nil || rows < 1 || cols < 1 {
			return nil, fmt.Errorf("graph: torus spec %q needs positive ROWSxCOLS", s)
		}
		return &Spec{raw: s, kind: "torus", rows: rows, cols: cols}, nil
	}
	if rest, ok := strings.CutPrefix(s, "regular:"); ok {
		ds, seeds, hasSeed := strings.Cut(rest, "@")
		d, err := strconv.Atoi(ds)
		if err != nil || d < 1 {
			return nil, fmt.Errorf("graph: regular spec %q needs a positive degree", s)
		}
		seed := uint64(1)
		if hasSeed {
			seed, err = strconv.ParseUint(seeds, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: regular spec %q has a bad seed: %v", s, err)
			}
		}
		return &Spec{raw: s, kind: "regular", degree: d, seed: seed}, nil
	}
	if rest, ok := strings.CutPrefix(s, "varying:"); ok {
		hold := 1
		// The hold suffix is cut at the LAST "@B=", so inner seeds
		// ("regular:4@7") pass through untouched.
		if at := strings.LastIndex(rest, "@B="); at >= 0 {
			h, err := strconv.Atoi(rest[at+len("@B="):])
			if err != nil || h < 1 {
				return nil, fmt.Errorf("graph: varying spec %q needs a positive @B=N hold", s)
			}
			hold = h
			rest = rest[:at]
		}
		var parts []*Spec
		for _, ps := range strings.Split(rest, ",") {
			ps = strings.TrimSpace(ps)
			if strings.HasPrefix(ps, "varying:") {
				return nil, fmt.Errorf("graph: varying spec %q nests varying", s)
			}
			p, err := ParseSpec(ps)
			if err != nil {
				return nil, fmt.Errorf("graph: varying spec %q: %v", s, err)
			}
			parts = append(parts, p)
		}
		if len(parts) < 2 {
			return nil, fmt.Errorf("graph: varying spec %q needs at least two comma-separated parts", s)
		}
		return &Spec{raw: s, kind: "varying", parts: parts, hold: hold}, nil
	}
	return nil, fmt.Errorf("graph: unknown graph spec %q (want %s)", s, SpecForms)
}

// Build instantiates the spec for m nodes, returning the (possibly static)
// sequence of mixing graphs. Specs that pin a node count (torus) reject a
// mismatched m.
func (sp *Spec) Build(m int) (*Sequence, error) {
	if m < 1 {
		return nil, fmt.Errorf("graph: spec %q needs at least one node, got %d", sp.raw, m)
	}
	switch sp.kind {
	case "ring":
		return Static(Ring(m)), nil
	case "star":
		return Static(Star(m)), nil
	case "complete":
		return Static(Complete(m)), nil
	case "expander":
		return Static(Expander(m)), nil
	case "torus":
		// Divided, not multiplied: rows*cols can overflow to m.
		if m%sp.cols != 0 || m/sp.cols != sp.rows {
			return nil, fmt.Errorf("graph: spec %q pins %d x %d nodes, cluster has %d", sp.raw, sp.rows, sp.cols, m)
		}
		return Static(Torus(sp.rows, sp.cols)), nil
	case "regular":
		g, err := RandomRegular(m, sp.degree, sp.seed)
		if err != nil {
			return nil, err
		}
		return Static(g), nil
	case "varying":
		graphs := make([]*Graph, len(sp.parts))
		for i, p := range sp.parts {
			seq, err := p.Build(m)
			if err != nil {
				return nil, err
			}
			graphs[i] = seq.Graph(0)
		}
		return NewSequence(sp.hold, graphs...)
	}
	return nil, fmt.Errorf("graph: unknown spec kind %q", sp.kind)
}

// AdaptiveGamma maps a measured spectral gap to a CHOCO consensus step:
// gamma = sqrt(delta) clamped to [0.05, 1]. The sqrt mirrors AdaComm's
// tau* ~ sqrt(D) shape — well-connected graphs (delta near 1) can afford
// full-strength consensus, while a near-disconnected topology damps the
// step so compressed estimate noise cannot be amplified around a slow-
// mixing cycle. The floor keeps gamma usable even on the star's O(1/n)
// gap.
func AdaptiveGamma(gap float64) float64 {
	if math.IsNaN(gap) || gap < 0 {
		gap = 0
	}
	gamma := math.Sqrt(gap)
	if gamma < 0.05 {
		gamma = 0.05
	}
	if gamma > 1 {
		gamma = 1
	}
	return gamma
}
