// Package delaymodel prices simulated time: the paper's runtime model (Sec
// 3.1), extended with payload sizes, heterogeneous links and faults. Every
// engine and every figure sampler charges its clock through the three
// decisions below; nothing else draws a synchronization round's compute or
// delay samples.
//
// Compute. A round of tau local steps waits for its slowest worker:
// SampleCompute sums tau draws of Y per worker, in worker order, multiplies
// each sum by the worker's compute factor (ComputeScales: its Stragglers
// factor times a persistent Jitter draw) and returns the max over the workers that
// are up. Down workers still draw, so membership never shifts the stream;
// with everyone down the round computes nothing and costs 0.
//
// Membership. Both halves take the engines' one membership mask: active[i]
// is true while worker i is up, and nil means everyone up. It is the mask
// faults.ActiveInto writes and comm.SetActive and graph.Subgraph read.
//
// Broadcast. SampleDRound prices a synchronization from its transfer
// schedule (per-worker wire bytes, the topology's latency hops and bytes
// factor, the membership mask and transfer scales, optionally a mixing graph
// with per-edge links):
//
//	D = (D0*latHops + slowest active transfer) * s(M)
//
// One payload on a homogeneous model is D = (D0 + bytes/Bandwidth) * s(M),
// and Bandwidth = 0 (an infinite link) is the paper's size-free D0 * s(M)
// bit for bit. The scaling s(M) multiplies the transfer term too, because
// every hop of the broadcast carries the payload.
//
// The link rule. One function, link, decides what a transfer costs: the
// link's latency, and the payload over the first non-zero bandwidth of the
// link itself, the sender's own link (Links) and the shared Bandwidth — 0
// everywhere is an infinite link with no wire term. It returns the two terms
// apart, so SampleDRound, SampleTransfer (one point-to-point transfer of the
// event-driven engine) and the parameter server's exchange (TransferTerms)
// each add them in the order their clocks always have; FastLinkCap reads
// such times back for the link-aware caps. Check validates every rate and
// latency the rule reads; a model it accepts, with non-negative compute and
// delay distributions, never moves a clock backwards.
//
// The one-D0-draw contract. A broadcast consumes exactly one D0 draw whatever
// its arguments — masks, graphs, payloads and recording never shift the
// delay stream — and the compute half draws steps*M compute times before it.
// A fault-free, homogeneous, size-free round is therefore priced with the
// paper model's draws, which is what keeps every golden trace where it was.
//
// The analytic samplers are the same two halves: SampleRoundBytes is one
// round (pass tau = 1 for fully synchronous SGD, divide by tau for PASGD's
// per-iteration time — the two distributions of Fig 5), MeasureBreakdownBytes
// splits a run into the compute and comm bars of Fig 8, and SpeedupMC's
// Monte-Carlo speed-up is set beside eq 12's constant-Y closed form,
// SpeedupConstant.
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
	// model, and the default for all legacy profiles). Check requires it
	// finite and non-negative, like every per-worker and per-edge rate.
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

	// Stragglers optionally slows individual workers: worker i's summed
	// compute draws are multiplied by Stragglers[i] (ComputeScales), which
	// must be finite and > 0, one per worker. nil = all 1.
	Stragglers []float64

	// Jitter optionally gives every worker a persistent multiplicative
	// compute-speed factor, drawn once per worker from this distribution
	// with a stream seeded by JitterSeed (see ComputeScales). It breaks the
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

// ComputeScales returns every worker's compute-time factor, the one both
// engines multiply a worker's summed compute draws by: its Stragglers factor
// (nil Stragglers are 1 for everyone) times its persistent Jitter draw (M
// draws from a stream seeded by JitterSeed, so the factors are a pure
// function of the configuration; a nil Jitter draws nothing). The slice is
// the caller's. A factor, a draw or a product that is not finite and positive
// is rejected: a NaN factor never gates a round (v > max is false) and a
// negative one runs the clock backwards.
func (dm *Model) ComputeScales() ([]float64, error) {
	factors := dm.Stragglers
	if factors != nil && len(factors) != dm.M {
		return nil, fmt.Errorf("delaymodel: %d straggler factors for %d workers", len(factors), dm.M)
	}
	var r *rng.Rand
	if dm.Jitter != nil {
		r = rng.New(dm.JitterSeed)
	}
	s := make([]float64, dm.M)
	for i := range s {
		f, j := 1.0, 1.0
		if factors != nil {
			f = factors[i]
		}
		if r != nil {
			j = dm.Jitter.Sample(r)
		}
		s[i] = f * j
		if !positive(f) || !positive(j) || !positive(s[i]) {
			return nil, fmt.Errorf("delaymodel: worker %d compute factor %v (straggler %v x jitter %v; want each finite > 0)", i, s[i], f, j)
		}
	}
	return s, nil
}

// positive reports whether v is finite and > 0.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// check rejects a link whose latency or bandwidth is not finite and
// non-negative — a negative or NaN entry would silently produce degenerate
// (negative or NaN) transfer times that poison every round that uses the
// link. Zero stays legal: zero latency is a real value and zero bandwidth
// means "inherit" by construction. So does a positive rate so small that its
// reciprocal overflows (a subnormal): it would price every transfer at +Inf.
// what names the entry in the error.
func (l Link) check(what string) error {
	if !(l.Latency >= 0) || math.IsInf(l.Latency, 1) {
		return fmt.Errorf("delaymodel: %s latency %v (want finite >= 0)", what, l.Latency)
	}
	if !(l.Bandwidth >= 0) || math.IsInf(l.Bandwidth, 1) || math.IsInf(1/l.Bandwidth, 1) && l.Bandwidth > 0 {
		return fmt.Errorf("delaymodel: %s bandwidth %v (want 0, or finite > 0 with a finite reciprocal)", what, l.Bandwidth)
	}
	return nil
}

// Edge identifies one directed transfer From -> To in the per-edge link
// table. Gossip exchanges are symmetric, so a slow physical cable is two
// entries (ParseEdgeLinks writes both directions from one "i-j:..." form).
type Edge struct {
	From, To int
}

// Check validates everything the link rule reads, and every engine
// constructor calls it: the shared Bandwidth, one Links entry per worker and
// the EdgeLinks table (node ids in range, no self-loops, entries visited in
// sorted order so the first error is deterministic), every rate and latency
// finite and non-negative. Unchecked, `bw > 0` reads a NaN or negative rate
// as a free, infinite link.
func (dm *Model) Check() error {
	if err := (Link{Bandwidth: dm.Bandwidth}).check("shared link"); err != nil {
		return err
	}
	if dm.Links != nil && len(dm.Links) != dm.M {
		return fmt.Errorf("delaymodel: %d links for %d workers", len(dm.Links), dm.M)
	}
	for i, l := range dm.Links {
		if err := l.check(fmt.Sprintf("worker %d link", i)); err != nil {
			return err
		}
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

// MeanY returns E[Y].
func (dm *Model) MeanY() float64 { return dm.Y.Mean() }

// MeanDBytes returns E[D] for a payload of the given size on the shared
// link: (E[D0] + bytes/Bandwidth) * s(M).
func (dm *Model) MeanDBytes(bytes int) float64 {
	_, wire := dm.link(Link{}, Link{}, bytes, 1)
	return (dm.D0.Mean() + wire) * dm.Scale.Factor(dm.M)
}

// SampleCompute draws the compute half of one synchronization round: every
// worker, in order, sums `steps` draws of Y — down workers too, so the round
// consumes the same stream whatever the membership — and the round waits for
// the slowest worker that is up, factor[i] times its sum (ComputeScales).
// nil factor is 1 for everyone and nil active (the membership mask) is
// everyone up; with every worker down the round computes nothing and costs 0.
func (dm *Model) SampleCompute(r *rng.Rand, steps int, factor []float64, active []bool) float64 {
	mx := math.Inf(-1)
	for i := 0; i < dm.M; i++ {
		sum := 0.0
		for k := 0; k < steps; k++ {
			sum += dm.Y.Sample(r)
		}
		if active != nil && !active[i] {
			continue
		}
		if factor != nil {
			sum *= factor[i]
		}
		if sum > mx {
			mx = sum
		}
	}
	if math.IsInf(mx, -1) {
		return 0
	}
	return mx
}

// SampleDRound draws the communication delay of one synchronization round
// from its actual transfer schedule. It is the ONE broadcast pricer: every
// engine round, fault-free or not, graph or collective, and every analytic
// sampler's broadcast, is this loop.
//
// bytesPerWorker is each worker's wire volume (the lock-step engine's
// round schedule), latHops the topology's count of sequential message
// launches, and bytesFactor the multiple of the payload each link carries
// over the whole collective (comm.Topology.LatencyHops and BytesFactor;
// both 1 for the legacy overlapped all-gather). A worker's transfer is
//
//	latency*latHops + bytes*bytesFactor/bandwidth
//
// by the link rule on its own link (Links[i], or the transparent zero link).
// When adj is non-nil AND EdgeLinks is set the round runs over a mixing
// graph: adj[i] lists the peers node i multicasts to, each directed transfer
// (i,j) is priced on its EdgeLinks entry if present (else worker i's link),
// and node i's transfer is its SLOWEST ACTIVE EDGE — so an expensive edge no
// active graph uses costs nothing.
//
// active (the membership mask) and scale are the fault masks; nil means
// everyone up, at scale 1. A down worker neither sends nor gates the round
// (times[i] is 0) and deactivates every edge touching it; scale[i]
// multiplies worker i's transfer (slow-down episodes and retry charges).
// times (when non-nil, len >= the schedule) receives each worker's own
// transfer, BEFORE the Scale factor and the shared D0 draw: which link gated
// the round and by how much. The lock-step engine passes nil; its
// controllers read only the round's total.
//
// Exactly ONE D0 draw is consumed whatever the arguments, so masks, graphs
// and recording never shift the delay stream, and the slowest active
// transfer gates the round: D = (D0*latHops + slowest) * s(M).
func (dm *Model) SampleDRound(r *rng.Rand, bytesPerWorker []int, adj [][]int, latHops, bytesFactor float64, active []bool, scale, times []float64) float64 {
	byEdge := adj != nil && dm.EdgeLinks != nil
	if byEdge && len(adj) < len(bytesPerWorker) {
		panic(fmt.Sprintf("delaymodel: schedule for %d workers over a %d-node adjacency", len(bytesPerWorker), len(adj)))
	}
	d := dm.D0.Sample(r) * latHops
	slow := 0.0
	for i, b := range bytesPerWorker {
		t := 0.0
		if active == nil || active[i] {
			own := dm.ownLink(i)
			if !byEdge {
				t = dm.transfer(own, own, b, latHops, bytesFactor)
			} else {
				for _, j := range adj[i] {
					if active != nil && !active[j] {
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

// transfer is one scheduled transfer's time: the link's latency once per
// hop, then its wire time.
func (dm *Model) transfer(l, own Link, b int, latHops, bytesFactor float64) float64 {
	lat, wire := dm.link(l, own, b, bytesFactor)
	t := lat * latHops
	return t + wire
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

// link is the link rule, the one place a transfer's bandwidth is resolved:
// b bytes times bytesFactor cross link l, sent by a worker whose own link is
// own, at the first non-zero bandwidth of l, own and the shared Bandwidth.
// It returns l's latency and the wire time apart, so each caller keeps its
// clock's own addition order; an empty payload or an infinite link (every
// bandwidth 0) has no wire time.
func (dm *Model) link(l, own Link, b int, bytesFactor float64) (latency, wire float64) {
	bw := l.Bandwidth
	if bw == 0 {
		bw = own.Bandwidth
	}
	if bw == 0 {
		bw = dm.Bandwidth
	}
	if bw > 0 && b > 0 {
		wire = float64(b) * bytesFactor / bw
	}
	return l.Latency, wire
}

// ownLink is worker i's own link: its Links entry, or the transparent zero
// link on a homogeneous model. A worker the table does not cover panics by
// name rather than with a bare out-of-range error deep in a round's pricing;
// a schedule may be narrower than the table, never wider.
func (dm *Model) ownLink(i int) Link {
	if dm.Links == nil {
		return Link{}
	}
	if i < 0 || i >= len(dm.Links) {
		panic(fmt.Sprintf("delaymodel: worker %d priced but only %d links (Links must cover every worker)", i, len(dm.Links)))
	}
	return dm.Links[i]
}

// TransferTerms prices one transfer of `bytes` on worker's own link by the
// link rule and returns the latency and the wire time apart, for a caller
// that adds them to a clock of its own (the parameter server's exchange).
// It panics when Links does not cover the worker.
func (dm *Model) TransferTerms(worker, bytes int) (latency, wire float64) {
	own := dm.ownLink(worker)
	return dm.link(own, own, bytes, 1)
}

// FastLinkCap caps an arrival count k at the number of observed transfer
// times within 3x (inclusive) of the fastest, and never below 1: wait only
// for the links worth waiting for (Kas Hanna et al. 2022). With nothing
// observed k stands; the cap never raises it.
func FastLinkCap(k int, times []float64) int {
	const slowCutoff = 3
	if len(times) == 0 {
		return k
	}
	fastest := math.Inf(1)
	for _, t := range times {
		if t < fastest {
			fastest = t
		}
	}
	n := 0
	for _, t := range times {
		if t <= fastest*slowCutoff {
			n++
		}
	}
	return min(k, max(n, 1))
}

// SampleTransfer draws the wall-clock cost of ONE point-to-point transfer
// of `bytes` on worker's own link: a D0 latency sample, then the link's
// latency, then the wire time (TransferTerms). Unlike SampleDRound it
// applies no Scale factor and takes no max across workers — it prices a
// single worker's pull or push in the event-driven engine, where transfers
// do not form synchronized collectives and each worker's arrival is
// scheduled on its own virtual clock.
func (dm *Model) SampleTransfer(r *rng.Rand, worker, bytes int) float64 {
	d := dm.D0.Sample(r)
	lat, wire := dm.TransferTerms(worker, bytes)
	d += lat
	return d + wire
}

// parseLink parses one "latency:bandwidth" pair, the grammar ParseLinks
// and ParseEdgeLinks share. Either part may be EMPTY for its zero value
// ("0:" = ":" = transparent link; an empty bandwidth inherits). An explicit
// bandwidth of 0 is rejected — written out, "0 bytes per second" reads as a
// dead link, but the zero value actually means "inherit", which silently
// becomes an INFINITE link on a model with no shared bandwidth; leave the
// part empty to inherit on purpose. Negative and non-finite values are
// rejected by the same link check Model.Check applies, so an
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

// SampleRoundBytes draws the wall-clock time of one PASGD round: tau local
// steps on every worker (SampleCompute, everyone up at factor 1), then a
// broadcast in which every worker ships `bytes` (SampleDRound, one hop;
// bytes = 0 or an infinite link is the paper's size-free D). tau = 1 is one
// iteration of fully synchronous SGD (eq 7); the round divided by tau is
// PASGD's per-iteration time, whose expectation is eq 11 — the two samples
// of Fig 5.
func (dm *Model) SampleRoundBytes(tau int, r *rng.Rand, bytes int) float64 {
	if tau < 1 {
		panic("delaymodel: tau must be >= 1")
	}
	compute := dm.SampleCompute(r, tau, nil, nil)
	return compute + dm.SampleDRound(r, dm.payloads(bytes), nil, 1, 1, nil, nil, nil)
}

// payloads is the schedule of a broadcast in which every worker ships bytes.
func (dm *Model) payloads(bytes int) []int {
	s := make([]int, dm.M)
	for i := range s {
		s[i] = bytes
	}
	return s
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
		sync += dm.SampleRoundBytes(1, r, 0)
		pavg += dm.SampleRoundBytes(tau, r, 0) / float64(tau)
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
// tau and splits the elapsed time into its compute half (SampleCompute) and
// its broadcast half (SampleDRound, every worker shipping a `bytes` payload
// against the profile's bandwidth) — the bars of Fig 8. bytes = 0 charges
// the paper's size-free D.
func MeasureBreakdownBytes(p Profile, m, tau, iters int, r *rng.Rand, bytes int) Breakdown {
	dm := p.Model(m, ConstantScaling{})
	sched := dm.payloads(bytes)
	b := Breakdown{Profile: p.Name, Tau: tau, Iters: iters}
	for done := 0; done < iters; {
		steps := min(tau, iters-done)
		b.Compute += dm.SampleCompute(r, steps, nil, nil)
		b.Comm += dm.SampleDRound(r, sched, nil, 1, 1, nil, nil, nil)
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
