// Package delaymodel implements the paper's runtime model (Sec 3.1): the
// per-iteration wall-clock time of fully synchronous SGD and of
// periodic-averaging SGD (PASGD) when local-step compute times Y_{i,k} are
// i.i.d. random variables and each all-node broadcast costs D = D0 * s(m).
//
// Beyond the paper, the model is size-aware: a Model with a finite Bandwidth
// (bytes per simulated second) charges each broadcast
//
//	D = (D0 + bytes/Bandwidth) * s(m)
//
// where bytes is the per-link payload of the round — the compressed message
// size when internal/compress is active, the dense 8*dim otherwise. The
// scaling s(m) multiplies the transfer term too, because every hop of the
// broadcast topology carries the payload. Bandwidth = 0 means an infinite
// link: SampleDBytes then degenerates to exactly the fixed-CommD0 cost
// D0 * s(m) of Sec 3.1 (same value, same RNG draws), so every pre-existing
// profile and trace is the bandwidth=infinity special case, bit for bit.
//
// Only the *Bytes helpers (SampleDBytes/MeanDBytes and the Monte-Carlo
// variants SampleSyncIterationBytes, SampleRoundBytes,
// SamplePerIterationBytes, MeasureBreakdownBytes) are size-aware. The
// paper-model helpers (MeanD, SampleSyncIteration, SampleRound, and the
// closed forms) deliberately charge the size-free D of Sec 3.1 even on a
// bandwidth-constrained Model — pass the payload explicitly via the *Bytes
// methods when analyzing a constrained link.
//
// Heterogeneous clusters set Model.Links, giving each worker its own
// Link{Latency, Bandwidth}; SampleDRound then prices a round from the
// topology's actual transfer schedule (per-worker wire bytes from
// internal/comm plus the topology's hop multipliers), with the slowest link
// gating the round.
//
// The model supplies three things to the rest of the repo:
//
//  1. closed-form results where they exist (speed-up eq 12, exponential
//     order statistics),
//  2. Monte-Carlo sampling of per-iteration and per-round times for the
//     runtime-distribution experiments (Fig 5), and
//  3. the simulated clock that internal/cluster advances during training,
//     which is what puts "wall-clock time" on the x-axis of Figs 9-13.
package delaymodel

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Scaling describes how the broadcast delay grows with the number of
// workers m: D = D0 * s(m) (paper eq 5).
type Scaling interface {
	Factor(m int) float64
	String() string
}

// ConstantScaling ignores m: s(m) = 1.
type ConstantScaling struct{}

// Factor implements Scaling.
func (ConstantScaling) Factor(int) float64 { return 1 }

func (ConstantScaling) String() string { return "s(m)=1" }

// LinearScaling models a flat all-to-one gather: s(m) = m.
type LinearScaling struct{}

// Factor implements Scaling.
func (LinearScaling) Factor(m int) float64 { return float64(m) }

func (LinearScaling) String() string { return "s(m)=m" }

// TreeScaling models a reduction tree: s(m) = 2*log2(m) for m >= 2, 1 for
// m = 1 (paper's parameter-server example, citing FireCaffe).
type TreeScaling struct{}

// Factor implements Scaling.
func (TreeScaling) Factor(m int) float64 {
	if m <= 1 {
		return 1
	}
	return 2 * math.Log2(float64(m))
}

func (TreeScaling) String() string { return "s(m)=2log2(m)" }

// Link describes one worker's attachment to the network, for heterogeneous
// clusters where stragglers are slow in bytes per second, not just compute
// (Spiridonoff et al. 2020; Kas Hanna et al. 2022). The zero value is a
// transparent link: no extra latency, bandwidth inherited from
// Model.Bandwidth.
type Link struct {
	// Latency is extra fixed delay (simulated seconds) this worker's link
	// adds to every transfer hop it participates in.
	Latency float64
	// Bandwidth is this worker's link rate in bytes per simulated second;
	// 0 inherits Model.Bandwidth (which may itself be 0 = infinite).
	Bandwidth float64
}

// Model is the full delay model for a cluster of M workers.
type Model struct {
	M     int              // number of workers
	Y     rng.Distribution // per-local-step compute time at one worker
	D0    rng.Distribution // base inter-node communication delay (latency)
	Scale Scaling          // delay growth with M

	// Bandwidth is the per-link transfer rate in bytes per simulated
	// second; 0 means infinite (the size-free broadcast of the paper's
	// model, and the default for all legacy profiles).
	Bandwidth float64

	// Links optionally gives every worker its own uplink/downlink
	// (len(Links) must equal M when non-nil). nil keeps the homogeneous
	// model: every transfer is charged against the shared Bandwidth, which
	// is the legacy behavior bit for bit.
	Links []Link

	// EdgeLinks optionally prices individual directed transfers: an entry
	// for Edge{From: i, To: j} overrides worker i's per-worker link on that
	// one transfer (latency replaces the worker link's latency; bandwidth 0
	// inherits the worker link's, then the shared Bandwidth). Only the
	// gossip engines consume it — a round over a mixing graph is gated by
	// its slowest ACTIVE edge (SampleDRound), so a slow edge a
	// sparse graph routes around costs nothing. nil keeps the per-worker
	// Links path on every topology, bit for bit.
	EdgeLinks map[Edge]Link

	// Jitter optionally gives every worker a persistent multiplicative
	// compute-speed factor, drawn once per worker from this distribution
	// with a stream seeded by JitterSeed (see JitterScales). It breaks the
	// arrival-order degeneracy of homogeneous clusters in the event-driven
	// engine — with identical links and compute times, every worker would
	// finish every round at the same instant and "the first K arrivals"
	// would carry no information. nil (the zero config) draws nothing and
	// keeps every existing trace bit-identical.
	Jitter rng.Distribution
	// JitterSeed seeds the per-worker jitter draws, independently of the
	// engines' seeds so enabling jitter never shifts their RNG streams.
	JitterSeed uint64
}

// JitterScales returns the per-worker compute-speed factors: M samples of
// Jitter from a stream seeded by JitterSeed, so the factors are a pure
// function of the model configuration. A nil Jitter returns nil (all
// workers at factor 1, the legacy behavior). Samples must be positive and
// finite — like CheckLinks, a degenerate factor is rejected instead of
// silently poisoning every round's compute time.
func (dm *Model) JitterScales() ([]float64, error) {
	if dm.Jitter == nil {
		return nil, nil
	}
	r := rng.New(dm.JitterSeed)
	s := make([]float64, dm.M)
	for i := range s {
		v := dm.Jitter.Sample(r)
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("delaymodel: worker %d jitter factor %v (want finite > 0)", i, v)
		}
		s[i] = v
	}
	return s, nil
}

// check rejects a link whose latency or bandwidth is not finite and
// non-negative — a negative or NaN entry would silently produce degenerate
// (negative or NaN) transfer times that poison every round that uses the
// link. Zero stays legal: zero latency is a real value and zero bandwidth
// means "inherit" by construction. what names the entry in the error.
func (l Link) check(what string) error {
	if !(l.Latency >= 0) || math.IsInf(l.Latency, 1) {
		return fmt.Errorf("delaymodel: %s latency %v (want finite >= 0)", what, l.Latency)
	}
	if !(l.Bandwidth >= 0) || math.IsInf(l.Bandwidth, 1) {
		return fmt.Errorf("delaymodel: %s bandwidth %v (want finite >= 0; 0 inherits)", what, l.Bandwidth)
	}
	return nil
}

// CheckLinks validates the per-worker link table: the length must match the
// worker count and every entry must pass the link check (finite,
// non-negative latency and bandwidth; a zero bandwidth inherits
// Model.Bandwidth).
func (dm *Model) CheckLinks() error {
	if dm.Links == nil {
		return nil
	}
	if len(dm.Links) != dm.M {
		return fmt.Errorf("delaymodel: %d links for %d workers", len(dm.Links), dm.M)
	}
	for i, l := range dm.Links {
		if err := l.check(fmt.Sprintf("worker %d link", i)); err != nil {
			return err
		}
	}
	return nil
}

// Edge identifies one directed transfer From -> To in the per-edge link
// table. Gossip exchanges are symmetric, so a slow physical cable is two
// entries (ParseEdgeLinks writes both directions from one "i-j:..." form).
type Edge struct {
	From, To int
}

// CheckEdgeLinks validates the per-edge link table the way CheckLinks
// validates the per-worker one: node ids must be in range, self-edges are
// meaningless, and every entry must pass the same link check (a zero
// bandwidth inherits the worker link's). Entries are checked in sorted
// order so the first error is deterministic.
func (dm *Model) CheckEdgeLinks() error {
	if dm.EdgeLinks == nil {
		return nil
	}
	edges := make([]Edge, 0, len(dm.EdgeLinks))
	for e := range dm.EdgeLinks {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].From != edges[b].From {
			return edges[a].From < edges[b].From
		}
		return edges[a].To < edges[b].To
	})
	for _, e := range edges {
		if e.From < 0 || e.From >= dm.M || e.To < 0 || e.To >= dm.M {
			return fmt.Errorf("delaymodel: edge (%d,%d) out of [0,%d)", e.From, e.To, dm.M)
		}
		if e.From == e.To {
			return fmt.Errorf("delaymodel: edge (%d,%d) is a self-loop", e.From, e.To)
		}
		if err := dm.EdgeLinks[e].check(fmt.Sprintf("edge (%d,%d)", e.From, e.To)); err != nil {
			return err
		}
	}
	return nil
}

// New builds a delay model, defaulting Scale to ConstantScaling.
func New(m int, y, d0 rng.Distribution, scale Scaling) *Model {
	if m < 1 {
		panic("delaymodel: need at least one worker")
	}
	if scale == nil {
		scale = ConstantScaling{}
	}
	return &Model{M: m, Y: y, D0: d0, Scale: scale}
}

// MeanD returns E[D] = E[D0] * s(M).
func (dm *Model) MeanD() float64 { return dm.D0.Mean() * dm.Scale.Factor(dm.M) }

// MeanY returns E[Y].
func (dm *Model) MeanY() float64 { return dm.Y.Mean() }

// SampleDBytes draws one broadcast delay for a payload of the given size:
// D = (D0 + bytes/Bandwidth) * s(M). With Bandwidth = 0 (infinite link) or
// a zero payload it is exactly the paper's size-free D0 * s(M) — same value,
// same RNG consumption — so size-free traces are preserved bit-identically.
func (dm *Model) SampleDBytes(r *rng.Rand, bytes int) float64 {
	d := dm.D0.Sample(r)
	if dm.Bandwidth > 0 && bytes > 0 {
		d += float64(bytes) / dm.Bandwidth
	}
	return d * dm.Scale.Factor(dm.M)
}

// MeanDBytes returns E[D] for a payload of the given size:
// (E[D0] + bytes/Bandwidth) * s(M).
func (dm *Model) MeanDBytes(bytes int) float64 {
	d := dm.D0.Mean()
	if dm.Bandwidth > 0 && bytes > 0 {
		d += float64(bytes) / dm.Bandwidth
	}
	return d * dm.Scale.Factor(dm.M)
}

// SampleDRound draws the communication delay of one synchronization round
// from its actual transfer schedule. It is the ONE round pricer: every
// engine round, fault-free or not, graph or collective, is this loop.
//
// bytesPerWorker is each worker's wire volume (internal/comm's
// Report.Bytes), latHops the topology's count of sequential message
// launches, and bytesFactor the multiple of the payload each link carries
// over the whole collective (comm.Topology.LatencyHops and BytesFactor;
// both 1 for the legacy overlapped all-gather). A worker's transfer is
//
//	latency*latHops + bytes*bytesFactor/bandwidth
//
// on its own link (Links[i]; a zero bandwidth, or nil Links, falls back to
// the shared Bandwidth, and 0 there is an infinite link). When adj is
// non-nil AND EdgeLinks is set the round runs over a mixing graph: adj[i]
// lists the peers node i multicasts to, each directed transfer (i,j) is
// priced on its EdgeLinks entry if present (else worker i's link), and node
// i's transfer is its SLOWEST ACTIVE EDGE — so an expensive edge no active
// graph uses costs nothing.
//
// down and scale are the fault masks; nil means everyone up, at scale 1.
// down[i] excludes worker i entirely (it neither sends nor gates the round,
// times[i] is 0) and deactivates every edge touching it; scale[i]
// multiplies worker i's transfer (slow-down episodes and retry charges).
// times (when non-nil, len >= the schedule) receives each worker's own
// transfer, BEFORE the Scale factor and the shared D0 draw — the signal
// link-aware controllers consume.
//
// Exactly ONE D0 draw is consumed whatever the arguments, so masks, graphs
// and recording never shift the delay stream, and the slowest active
// transfer gates the round: D = (D0*latHops + slowest) * s(M). With nil
// Links and unit multipliers that is SampleDBytes(max bytes), same value,
// same draw.
func (dm *Model) SampleDRound(r *rng.Rand, bytesPerWorker []int, adj [][]int, latHops, bytesFactor float64, down []bool, scale, times []float64) float64 {
	dm.checkScheduleWidth(len(bytesPerWorker))
	byEdge := adj != nil && dm.EdgeLinks != nil
	if byEdge && len(adj) < len(bytesPerWorker) {
		panic(fmt.Sprintf("delaymodel: schedule for %d workers over a %d-node adjacency", len(bytesPerWorker), len(adj)))
	}
	d := dm.D0.Sample(r) * latHops
	slow := 0.0
	for i, b := range bytesPerWorker {
		t := 0.0
		if down == nil || !down[i] {
			var own Link
			if dm.Links != nil {
				own = dm.Links[i]
			}
			if !byEdge {
				t = dm.transfer(own, own, b, latHops, bytesFactor)
			} else {
				for _, j := range adj[i] {
					if down != nil && down[j] {
						continue
					}
					l, ok := dm.EdgeLinks[Edge{From: i, To: j}]
					if !ok {
						l = own
					}
					if et := dm.transfer(l, own, b, latHops, bytesFactor); et > t {
						t = et
					}
				}
			}
			if scale != nil {
				t *= scale[i]
			}
		}
		if times != nil {
			times[i] = t
		}
		if t > slow {
			slow = t
		}
	}
	return (d + slow) * dm.Scale.Factor(dm.M)
}

// transfer prices one transfer of b bytes on link l, whose zero bandwidth
// inherits the sending worker's own link, then the shared Bandwidth.
func (dm *Model) transfer(l, own Link, b int, latHops, bytesFactor float64) float64 {
	bw := l.Bandwidth
	if bw == 0 {
		bw = own.Bandwidth
	}
	if bw == 0 {
		bw = dm.Bandwidth
	}
	t := l.Latency * latHops
	if bw > 0 && b > 0 {
		t += float64(b) * bytesFactor / bw
	}
	return t
}

// SampleDScheduleInto is SampleDRound over per-worker links with everyone
// up (no adjacency, nil masks). benchmark/probes.go times it.
func (dm *Model) SampleDScheduleInto(r *rng.Rand, bytesPerWorker []int, latHops, bytesFactor float64, times []float64) float64 {
	return dm.SampleDRound(r, bytesPerWorker, nil, latHops, bytesFactor, nil, nil, times)
}

// SampleDEdgeScheduleInto is SampleDRound over the mixing graph adj with
// everyone up (nil masks). benchmark/probes.go times it.
func (dm *Model) SampleDEdgeScheduleInto(r *rng.Rand, bytesPerWorker []int, adj [][]int, latHops, bytesFactor float64, times []float64) float64 {
	return dm.SampleDRound(r, bytesPerWorker, adj, latHops, bytesFactor, nil, nil, times)
}

// checkScheduleWidth guards the per-worker link table against a schedule
// wider than it covers: before dynamic membership, a shrunk or mismatched
// worker set would silently index past Links and crash with a bare
// out-of-range error deep in a round's pricing. The schedule may be
// NARROWER than the table (a subset of workers is fine); it must never be
// wider.
func (dm *Model) checkScheduleWidth(workers int) {
	if dm.Links != nil && len(dm.Links) < workers {
		panic(fmt.Sprintf("delaymodel: schedule for %d workers but only %d links (Links must cover every worker)", workers, len(dm.Links)))
	}
}

// SampleTransfer draws the wall-clock cost of ONE point-to-point transfer
// of `bytes` on worker i's link: a D0 latency sample plus the worker's link
// latency plus bytes over the link's effective bandwidth (the worker's own,
// falling back to the shared Bandwidth; 0 = infinite). Unlike the round
// samplers it applies no Scale factor and takes no max across workers — it
// prices a single worker's pull or push in the event-driven engine, where
// transfers do not form synchronized collectives and each worker's arrival
// is scheduled on its own virtual clock.
func (dm *Model) SampleTransfer(r *rng.Rand, worker, bytes int) float64 {
	d := dm.D0.Sample(r)
	bw := dm.Bandwidth
	if dm.Links != nil {
		if worker < 0 || worker >= len(dm.Links) {
			panic(fmt.Sprintf("delaymodel: transfer for worker %d but only %d links (Links must cover every worker)", worker, len(dm.Links)))
		}
		l := dm.Links[worker]
		d += l.Latency
		if l.Bandwidth > 0 {
			bw = l.Bandwidth
		}
	}
	if bw > 0 && bytes > 0 {
		d += float64(bytes) / bw
	}
	return d
}

// parseLink parses one "latency:bandwidth" pair, the grammar ParseLinks
// and ParseEdgeLinks share. Either part may be EMPTY for its zero value
// ("0:" = ":" = transparent link; an empty bandwidth inherits). An explicit
// bandwidth of 0 is rejected — written out, "0 bytes per second" reads as a
// dead link, but the zero value actually means "inherit", which silently
// becomes an INFINITE link on a model with no shared bandwidth; leave the
// part empty to inherit on purpose. Negative and non-finite values are
// rejected by the same check CheckLinks and CheckEdgeLinks apply, so an
// accepted spec always validates. kind and entry name the flag entry in
// errors.
func parseLink(kind, entry, pair string) (l Link, err error) {
	lat, bw, ok := strings.Cut(pair, ":")
	if !ok {
		return l, fmt.Errorf("delaymodel: %s %q needs latency:bandwidth", kind, entry)
	}
	if lat != "" {
		if l.Latency, err = strconv.ParseFloat(lat, 64); err != nil {
			return l, fmt.Errorf("delaymodel: bad latency in %q: %v", entry, err)
		}
	}
	if bw != "" {
		if l.Bandwidth, err = strconv.ParseFloat(bw, 64); err != nil {
			return l, fmt.Errorf("delaymodel: bad bandwidth in %q: %v", entry, err)
		}
		if l.Bandwidth == 0 {
			return l, fmt.Errorf("delaymodel: %s %q has explicit zero bandwidth; leave the part empty (%q) to inherit", kind, entry, lat+":")
		}
	}
	return l, l.check(fmt.Sprintf("%s %q", kind, entry))
}

// ParseLinks parses the per-worker link flag syntax: a comma-separated list
// of "latency:bandwidth" pairs (see parseLink), one per worker — e.g.
// "0:4096,0:4096,0:409.6" gives the last worker a 10x slower link. "" returns
// nil links (the homogeneous model, bit for bit).
func ParseLinks(s string, m int) ([]Link, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != m {
		return nil, fmt.Errorf("delaymodel: %d links for %d workers in %q", len(parts), m, s)
	}
	links := make([]Link, m)
	for i, p := range parts {
		var err error
		if links[i], err = parseLink("link", p, strings.TrimSpace(p)); err != nil {
			return nil, err
		}
	}
	return links, nil
}

// ParseEdgeLinks parses the per-edge link flag syntax: a comma-separated
// list of "I-J:latency:bandwidth" entries, the pair after the node ids
// following ParseLinks' grammar. Each entry prices the edge in BOTH
// directions (a slow cable slows traffic both ways). "" returns a nil table
// (the per-worker pricing path, bit for bit).
func ParseEdgeLinks(s string, m int) (map[Edge]Link, error) {
	if s == "" {
		return nil, nil
	}
	table := make(map[Edge]Link)
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		nodes, pair, ok := strings.Cut(p, ":")
		if !ok {
			return nil, fmt.Errorf("delaymodel: edge link %q needs I-J:latency:bandwidth", p)
		}
		is, js, ok := strings.Cut(nodes, "-")
		if !ok {
			return nil, fmt.Errorf("delaymodel: edge link %q needs an I-J node pair", p)
		}
		i, err1 := strconv.Atoi(is)
		j, err2 := strconv.Atoi(js)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("delaymodel: bad node pair in %q", p)
		}
		if i < 0 || i >= m || j < 0 || j >= m {
			return nil, fmt.Errorf("delaymodel: edge link %q nodes out of [0,%d)", p, m)
		}
		if i == j {
			return nil, fmt.Errorf("delaymodel: edge link %q is a self-loop", p)
		}
		if _, dup := table[Edge{From: i, To: j}]; dup {
			return nil, fmt.Errorf("delaymodel: edge %d-%d listed twice", i, j)
		}
		l, err := parseLink("edge link", p, pair)
		if err != nil {
			return nil, err
		}
		table[Edge{From: i, To: j}] = l
		table[Edge{From: j, To: i}] = l
	}
	return table, nil
}

// SampleSyncIteration draws one iteration time of fully synchronous SGD
// (paper eq 7): max over workers of one compute time, plus D. A zero-byte
// payload makes SampleDBytes the size-free D0 * s(M), so the size-free
// samplers delegate to their *Bytes counterparts with 0.
func (dm *Model) SampleSyncIteration(r *rng.Rand) float64 {
	return dm.SampleSyncIterationBytes(r, 0)
}

// SampleRound draws the wall-clock time of one PASGD round of tau local
// steps followed by an averaging broadcast: max over workers of the SUM of
// tau compute times, plus D. Dividing by tau gives the per-iteration time
// whose expectation is eq 11.
func (dm *Model) SampleRound(tau int, r *rng.Rand) float64 {
	return dm.SampleRoundBytes(tau, r, 0)
}

// SampleSyncIterationBytes is SampleSyncIteration with the broadcast charged
// the size-aware cost of a `bytes` payload (SampleDBytes) — the Fig 5
// sampler for bandwidth-constrained links.
func (dm *Model) SampleSyncIterationBytes(r *rng.Rand, bytes int) float64 {
	mx := math.Inf(-1)
	for i := 0; i < dm.M; i++ {
		if v := dm.Y.Sample(r); v > mx {
			mx = v
		}
	}
	return mx + dm.SampleDBytes(r, bytes)
}

// SampleRoundBytes is SampleRound with the averaging broadcast charged the
// size-aware cost of a `bytes` payload.
func (dm *Model) SampleRoundBytes(tau int, r *rng.Rand, bytes int) float64 {
	if tau < 1 {
		panic("delaymodel: tau must be >= 1")
	}
	mx := math.Inf(-1)
	for i := 0; i < dm.M; i++ {
		sum := 0.0
		for k := 0; k < tau; k++ {
			sum += dm.Y.Sample(r)
		}
		if sum > mx {
			mx = sum
		}
	}
	return mx + dm.SampleDBytes(r, bytes)
}

// SamplePerIterationBytes draws the per-iteration time of PASGD with period
// tau under a size-aware broadcast of `bytes` per round.
func (dm *Model) SamplePerIterationBytes(tau int, r *rng.Rand, bytes int) float64 {
	return dm.SampleRoundBytes(tau, r, bytes) / float64(tau)
}

// SamplePerIteration draws the per-iteration time of PASGD with period tau
// (round time divided by tau) — the quantity plotted in Fig 5.
func (dm *Model) SamplePerIteration(tau int, r *rng.Rand) float64 {
	return dm.SampleRound(tau, r) / float64(tau)
}

// MCMeanPerIteration estimates E[T_PAvg] (eq 11) by Monte Carlo.
func (dm *Model) MCMeanPerIteration(tau, trials int, r *rng.Rand) float64 {
	sum := 0.0
	for t := 0; t < trials; t++ {
		sum += dm.SamplePerIteration(tau, r)
	}
	return sum / float64(trials)
}

// ExpectedSyncIterationExponential returns the closed-form E[T_sync] =
// y*H_m + E[D] when Y is exponential with mean y (paper Sec 3.2). It
// panics if Y is not exponential.
func (dm *Model) ExpectedSyncIterationExponential() float64 {
	e, ok := dm.Y.(rng.Exponential)
	if !ok {
		panic("delaymodel: closed form requires exponential Y")
	}
	return rng.ExpectedMaxExponential(e.MeanVal, dm.M) + dm.MeanD()
}

// SpeedupConstant returns the paper's eq 12 speed-up of PASGD over fully
// synchronous SGD when Y and D are constants:
//
//	E[T_sync]/E[T_PAvg] = (1 + alpha) / (1 + alpha/tau).
func SpeedupConstant(alpha float64, tau int) float64 {
	if tau < 1 {
		panic("delaymodel: tau must be >= 1")
	}
	return (1 + alpha) / (1 + alpha/float64(tau))
}

// SpeedupMC estimates the true speed-up E[T_sync]/E[T_PAvg] for arbitrary
// distributions by Monte Carlo.
func (dm *Model) SpeedupMC(tau, trials int, r *rng.Rand) float64 {
	sync := 0.0
	pavg := 0.0
	for t := 0; t < trials; t++ {
		sync += dm.SampleSyncIteration(r)
		pavg += dm.SamplePerIteration(tau, r)
	}
	return sync / pavg
}

// Profile is a named calibration of the delay model to a deep-network
// architecture, standing in for the paper's Fig 8 measurements. ComputeY is
// the per-local-step compute-time distribution; CommD0 the base broadcast
// delay. alpha = E[D]/E[Y] reproduces the paper's qualitative
// claim: VGG-16's communication is ~4x its computation, while ResNet-50's
// communication is about half its computation.
type Profile struct {
	Name     string
	ComputeY rng.Distribution
	CommD0   rng.Distribution
	// Bandwidth is the per-link transfer rate in bytes per simulated
	// second (0 = infinite, the legacy size-free behavior).
	Bandwidth float64
}

// VGG16Profile returns the VGG-16-like calibration (alpha = 4): 0.05 s
// compute per iteration, 0.20 s broadcast. The absolute scale is arbitrary
// simulator seconds; the ratio is what Fig 8 pins down.
func VGG16Profile() Profile {
	return Profile{
		Name:     "VGG16-like",
		ComputeY: rng.ShiftedExponential{Shift: 0.04, Scale: 0.01},
		CommD0:   rng.Constant{Value: 0.20},
	}
}

// ResNet50Profile returns the ResNet-50-like calibration (alpha = 0.5):
// 0.12 s compute per iteration, 0.06 s broadcast.
func ResNet50Profile() Profile {
	return Profile{
		Name:     "ResNet50-like",
		ComputeY: rng.ShiftedExponential{Shift: 0.10, Scale: 0.02},
		CommD0:   rng.Constant{Value: 0.06},
	}
}

// Constrained returns a copy of the profile with a finite per-link
// bandwidth (bytes per simulated second), turning it into a
// bandwidth-limited scenario where communication cost depends on payload
// size — the setting where gradient compression pays off.
func (p Profile) Constrained(bandwidth float64) Profile {
	p.Name = fmt.Sprintf("%s@%gB/s", p.Name, bandwidth)
	p.Bandwidth = bandwidth
	return p
}

// FederatedProfile models a WAN/edge link: negligible fixed latency but a
// tight bandwidth, so broadcast cost is dominated by payload size. compute
// is the mean per-step compute time; bandwidth is in bytes per simulated
// second.
func FederatedProfile(compute, bandwidth float64) Profile {
	return Profile{
		Name:      "federated",
		ComputeY:  rng.ShiftedExponential{Shift: 0.8 * compute, Scale: 0.2 * compute},
		CommD0:    rng.Constant{Value: 0.05 * compute},
		Bandwidth: bandwidth,
	}
}

// Model builds a delay model for m workers from the profile.
func (p Profile) Model(m int, scale Scaling) *Model {
	dm := New(m, p.ComputeY, p.CommD0, scale)
	dm.Bandwidth = p.Bandwidth
	return dm
}

// Breakdown is the computation/communication split of a run of iterations,
// the quantity shown as stacked bars in Fig 8.
type Breakdown struct {
	Profile   string
	Tau       int
	Iters     int
	Compute   float64 // total compute wall-clock (max across workers per round)
	Comm      float64 // total communication wall-clock
	WallClock float64 // Compute + Comm
}

// MeasureBreakdownBytes simulates `iters` iterations of PASGD with period
// tau and splits the elapsed time into compute and communication
// components, every broadcast charged the size-aware cost of a `bytes`
// payload against the profile's bandwidth — the Fig 8 driver. bytes = 0
// charges the paper's size-free D.
func MeasureBreakdownBytes(p Profile, m, tau, iters int, r *rng.Rand, bytes int) Breakdown {
	dm := p.Model(m, ConstantScaling{})
	b := Breakdown{Profile: p.Name, Tau: tau, Iters: iters}
	done := 0
	for done < iters {
		steps := tau
		if rem := iters - done; rem < steps {
			steps = rem
		}
		mx := math.Inf(-1)
		for i := 0; i < m; i++ {
			sum := 0.0
			for k := 0; k < steps; k++ {
				sum += dm.Y.Sample(r)
			}
			if sum > mx {
				mx = sum
			}
		}
		b.Compute += mx
		b.Comm += dm.SampleDBytes(r, bytes)
		done += steps
	}
	b.WallClock = b.Compute + b.Comm
	return b
}

// String renders the breakdown as a table row.
func (b Breakdown) String() string {
	return fmt.Sprintf("%-14s tau=%-4d iters=%-5d compute=%8.3f comm=%8.3f total=%8.3f",
		b.Profile, b.Tau, b.Iters, b.Compute, b.Comm, b.WallClock)
}
