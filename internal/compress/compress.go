// Package compress implements gradient/delta compression for the
// communication-volume axis of the error-runtime trade-off. The paper adapts
// how OFTEN workers communicate (the period tau); this package models how
// MUCH is sent per round, so that internal/delaymodel can charge a
// size-aware cost D = (latency + bytes/bandwidth) * s(m) and the simulator
// can express bandwidth-limited (e.g. federated) scenarios.
//
// A Compressor maps a parameter-delta vector to a wire Message and back.
// Four schemes are provided:
//
//   - Identity: lossless dense encoding (8 bytes/coordinate); the baseline
//     that exercises the compressed-averaging protocol at full payload.
//   - Top-k sparsification: keep the k = ceil(ratio*dim) largest-magnitude
//     coordinates (biased, strong in practice; Lin et al. 2018).
//   - Random-k sparsification: keep a uniformly random k-subset scaled by
//     dim/k, an UNBIASED estimator of the input (Stich et al. 2018).
//   - QSGD-style stochastic b-bit quantization: coordinates are stochastically
//     rounded to 2^b-1 levels of the L2 ball, an unbiased estimator
//     (Alistarh et al. 2017).
//
// Biased compressors (top-k in particular) need error feedback to keep
// compressed PASGD convergent: WithErrorFeedback wraps any Compressor with a
// residual accumulator that re-injects what previous rounds dropped
// (Karimireddy et al. 2019). All compressors are deterministic given their
// seed stream, which is what lets the cluster engine stay bitwise identical
// at any compute-pool width under compression.
//
// # Top-k: selection, order, NaN
//
// Top-k runs once per worker per exchange on a vector the size of the
// model, and once per gradient the parameter server receives, so its cost is
// simulator overhead on every compressed run. It is four branch-free passes
// over the vector, each an AVX2 kernel in internal/tensor (four coordinates
// per instruction where the CPU has them, the Go loops elsewhere and under
// -tags purego, every bit the same on both), and a little work on what is
// left, which stays here:
//
//   - Order. Magnitudes are compared as the IEEE-754 bit pattern of |v| (the
//     word with its sign bit cleared) under unsigned integer order. For
//     non-negative doubles that order IS the numeric one — +0 and -0 both
//     map to 0, subnormals sit between zero and the normals, +Inf is the
//     largest non-NaN — so every message equals what a float comparison
//     would build. NaN patterns lie above +Inf: a NaN coordinate is the
//     LARGEST magnitude, always kept, and a message always has exactly
//     k = ceil(ratio*dim) entries with 12k (or 8k on a float32 wire) bytes
//     to price. A float comparison has no such answer: NaN compares false
//     against everything, a comparison-based select that meets one returns
//     a NaN threshold nothing passes, and the diverged worker ships an
//     empty, zero-byte message. keepCount takes the ceiling of the decimal
//     the ratio names: 0.14 * 650 evaluates to 91.00000000000001, and 91
//     coordinates are kept, not 92.
//   - Selection (selectKthLargest) is an exact radix select on those
//     patterns. tensor.CountDigits counts the top 12 bits — exponent plus
//     one mantissa bit, half-octave buckets — into a 4096-counter histogram
//     and returns a 64-bit occupancy word of the 64-bucket groups it touched
//     (digits and occupancy bits in lanes, the increments scalar), so the
//     walk down from the top bucket to the one holding rank k, and the clear
//     that restores the all-zero histogram, cost a few dozen counters on a
//     bell-shaped vector instead of 4096 (a 650-wide vector cannot afford
//     more). The walk also returns that bucket's count, and
//     tensor.KeepDigit compacts the bucket's patterns into the compressor's
//     keys, which are sized to it (growKeys: at least count+4 entries,
//     doubled when short, at most dim; a heavy-tie vector of one bucket
//     takes dim). The candidates (about a fifth of a Gaussian vector)
//     are then narrowed here by range-adaptive digits — their own [min, max]
//     spread over about one counter each, at most 1024 — until 16 or fewer
//     remain for an insertion sort, or all are equal. Range adaptation is
//     what keeps clustered and heavily tied inputs at one or two tail
//     passes; every tail pass strictly shrinks the range, so it terminates
//     on any input. No pass branches on the data, which is the whole gain:
//     to a comparison-based select every test against the pivot is a coin
//     flip the branch predictor loses half the time — unless a benchmark
//     feeds it one fixed vector and lets it learn the answers (bench_test.go
//     cycles 64 inputs for that reason).
//   - Emission. tensor.EmitAbove writes the strictly-greater coordinates as
//     (index, value) pairs in ascending index order — fewer than k exist —
//     then tensor.FillTies the coordinates tied with the threshold, lowest
//     index first, from index 0 until there are k. That order and tie rule
//     are the wire contract the goldens pin. The tie scan stores only the
//     groups of four that hold a tie, so the search for the threshold's own
//     coordinate, usually the one tie needed, takes four coordinates a step.
//   - The store bound. The kernels store four lanes at a time into arrays
//     sized to what they hold: a message's arrays are exactly k long with
//     whatever capacity the holder gave them, and the keys only as long as
//     the k-th bucket. A kernel stores only while its cursor is at least 4
//     short of the array's length and leaves the rest to its Go loop, which
//     stores one entry at a time. Nothing is written past len(Indices) or
//     len(keys), whatever the capacity; the keys carry four entries of
//     slack only so that KeepDigit's kernel runs to the last group instead
//     of leaving the rest to its Go loop. TestTopKStoresNothingPastK holds the messages to that on
//     both tiers with sentinels past k, and internal/tensor's
//     TestKeepDigitStoresNothingPastKeys the keys, with sentinels past keys
//     one entry longer than the bucket.
//
// Error feedback forms vec + residual in the residual itself (tensor.Add,
// four-wide and safe in place), and the inner compressor reads it there: a
// compressor keeps no reference to its input, so no second dim-sized buffer
// is needed, and what a worker holds is its residual and its message.
// Fusing that add into the digit count measured 3.24 us against 3.23 us per
// call at ps_adasync's shape (650 coordinates, ratio 0.1, best of 30 runs of
// 20 000 calls): nothing, so the add stays a pass of its own.
//
// # QSGD: draw order, conversion, what stays scalar
//
// QSGD runs once per worker per exchange over every coordinate of the model,
// and so do its decode (error feedback, the parameter server) and its
// accumulate (every aggregate of quantized messages). All three go through
// internal/tensor (QuantizeLevels, DequantizeLevels, AccumulateLevels): four
// coordinates per AVX2 instruction where the CPU has them, the Go loops
// elsewhere and under -tags purego, every bit the same on both.
//
//   - THE DRAW-ORDER CONTRACT. CompressInto takes exactly one Float64 from its
//     stream per coordinate, in index order — coordinate i rounds against the
//     i-th draw of the call — and none at all when the norm is 0 (an idle
//     client's stream does not move). The draws are taken ahead of the
//     arithmetic, a drawTile of them at a time into a stack buffer by
//     rng.FillFloat64, which is that many successive Float64 calls; the tile
//     size is therefore invisible in every message and in the stream's
//     state, and changing it needs no recapture. Anything that reorders,
//     skips or adds a draw moves every golden that runs qsgd. The fill is
//     tensor.Uniforms, so the draws too are four lanes at a time on the
//     AVX2 tier, each lane Float64's bits; only xoshiro256**'s state chain,
//     serial by nature, stays scalar, and it is most of what a draw costs.
//   - The conversion domain. A level is floor(|v| / norm * s) or one more,
//     at most s + 1 <= 256 because norm is vec's own: |v| / norm <= 1 up to
//     rounding, and a square that underflowed out of the norm belongs to a
//     coordinate smaller than each one that did not. A NaN or infinite
//     coordinate makes the norm NaN or Inf and its level NaN, which both
//     tiers write as 0 (a truncating conversion, never a saturating one);
//     tensor.QuantizeLevels states the domain the two tiers agree on.
//   - What stays scalar. The norm is sum v*v in ascending index into one
//     accumulator: a serial chain of dependent adds, and any reassociation —
//     which is what vector lanes are — changes its bits. It and the draw
//     fill (xoshiro's state is a serial chain too) are what is left of
//     CompressInto's time once the rounding is four-wide.
//
// oracle_test.go keeps the scalar loops and compares levels, norm, bits and
// the stream's next draw; internal/tensor's quant_test.go holds each kernel
// to its Go loop and fuzzes raw float64 words through both.
//
// # Error feedback on a sparse message
//
// The residual is (vec + residual) minus what the message reconstructs. A
// sparse message reconstructs to zero off its k kept coordinates, and
// x - 0 == x bit for bit for every x including -0, NaN and the infinities,
// so after the in-place add ErrorFeedback subtracts only the k shipped
// values from the residual, with no dense reconstruction and no dim-wide
// subtract. The bits equal theirs as long as a message's indices are
// distinct, which top-k and random-k guarantee. Dense and quantized messages
// are decoded into a buffer and subtracted from the residual in place
// (tensor.Sub, safe in place).
//
// # The float32 wire
//
// Spec.Wire (the "+f32" modifier, ParseWire, -wire on adacomm, figures and
// sweep) narrows every transmitted value through float32 (Narrow32) and
// prices 4 bytes a value, while model state stays float64. Spec.New wraps
// error feedback OUTSIDE the narrowing, so the residual sees the wire's
// actual loss; Spec.Lossless requires WireFloat64; the gossip grid's Wire
// field narrows only its compressed cells (its raw ring stays lossless).
// The ablation is internal/experiments/wire.go (sweep -ablation wire, and
// -ablation gossip -wire float32).
//
// # Who owns a message
//
// A Message's backing arrays (Dense, Indices, Values, Levels) belong to
// whoever holds the Message — never to the compressor that filled it and
// never to the vector it was filled from. A compressor keeps no reference to
// a message after CompressInto returns, a filled message shares no memory
// with vec or with compressor scratch, and wrappers (float32 narrowing,
// error feedback) hand the caller's *Message inward and touch its arrays
// only during the call. The holder may therefore keep a message across any
// number of later calls on the same compressor, mutate it, or pass it to
// CompressInto again, which is how the engines run allocation-free:
// CompressInto overwrites every field and reuses each array whose capacity
// suffices, so one long-lived Message per wire slot serves every round.
// Recycling is exact — a dirty message (another encoding, a larger k, stale
// Wire/Norm/Bits) comes back bit-identical to a fresh one.
//
// Where the Message lives matters. CompressInto is an interface method, so
// the compiler must assume the pointer escapes: the address of a local
// Message moves that local to the heap on every call, one allocation per
// message. Compress into a struct field or a slice element of storage that
// is already on the heap: Engine.msgBuf[i] (a down worker's slot keeps its
// stale message, which the communicator skips), Engine.wireMsg (CHOCO and
// elastic; a lossless CHOCO message is a borrowed view of the parameters,
// never stored there), Server.pushMsg, and a client's msg, which a dispatch
// takes from AsyncEngine.freeMsgs before it builds one (so at most
// AsyncStats.PeakInFlight exist). Tier-1 gates every spec's CompressInto and
// each engine's exchange at zero allocations after warm-up; over a long run
// top-k's keys can still double a handful of times, when a k-th bucket
// outgrows every earlier one (growKeys). Compress(vec)
// is CompressInto on a zero Message, for callers that want a fresh message
// and accept its allocations.
//
// # A pull is free or exact, priced and never built
//
// No engine builds a message for a model download: wire sizes are
// data-independent (Spec.WireBytes), so the receiver takes the sender's
// vector itself and its link is charged the size. The parameter server's
// PullCompress is none (free) or lossless (Spec.WireBytes(dim)), and New
// there refuses a lossy spec; the lock-step rejoin reconcile charges the
// extended vector's dense float64 size; the event-driven engine's download
// is the global model at the run's wire precision. A lossy pull would need
// a per-worker reconstruction and a delta message per dispatch.
package compress

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Encoding discriminates the wire representation held by a Message.
type Encoding int

const (
	// EncDense is the raw float64 vector (identity).
	EncDense Encoding = iota
	// EncSparse is an index/value list (top-k, random-k).
	EncSparse
	// EncQuant is an L2 norm plus per-coordinate signed quantization levels
	// (QSGD).
	EncQuant
)

// Message is one compressed payload. Exactly one encoding's fields are
// populated, according to Enc; the other encodings' arrays have length zero.
//
// The backing arrays belong to the holder of the Message (see "Who owns a
// message" in the package comment): they alias neither the compressor's
// scratch nor the compressed vector, stay valid across later calls on the
// same compressor, and are what CompressInto reuses when the Message is
// handed back. Copying a Message copies the headers, not the arrays — two
// copies share storage, so recycle only one of them.
type Message struct {
	Dim  int // uncompressed vector length
	Enc  Encoding
	Wire WireFormat // value precision on the wire (indices/levels are exact)

	// EncDense
	Dense []float64

	// EncSparse
	Indices []int32
	Values  []float64

	// EncQuant: value_i = Norm * Levels[i] / (2^Bits - 1).
	Norm   float64
	Bits   int
	Levels []int16
}

// Bytes returns the on-the-wire payload size: one value-width per dense
// float (8 bytes, or 4 under WireFloat32), 4 index bytes plus one
// value-width per sparse pair, and sign+level bit-packing plus the
// value-width norm for quantized messages. Framing overhead is excluded —
// the delay model charges payload only.
func (m Message) Bytes() int {
	vb := m.Wire.valueBytes()
	switch m.Enc {
	case EncDense:
		return vb * m.Dim
	case EncSparse:
		return len(m.Indices) * (4 + vb)
	case EncQuant:
		return vb + (m.Dim*(m.Bits+1)+7)/8
	}
	panic(fmt.Sprintf("compress: unknown encoding %d", int(m.Enc)))
}

// Decode reconstructs msg into dst (len(dst) must equal msg.Dim),
// overwriting it entirely (including zeros for coordinates a sparse message
// dropped). Messages are self-describing: any wire message can be decoded
// without the compressor that produced it, which is what lets the receiving
// side of a simulated link (internal/comm) reconstruct payloads it did not
// compress — so compressors have no decompress half.
func Decode(msg Message, dst []float64) error {
	switch msg.Enc {
	case EncDense:
		if err := checkDim(msg, dst); err != nil {
			return err
		}
		copy(dst, msg.Dense)
		return nil
	case EncSparse:
		return scatterSparse(msg, dst)
	case EncQuant:
		return dequantize(msg, dst)
	}
	return fmt.Errorf("compress: unknown encoding %d", int(msg.Enc))
}

// AddDecoded accumulates the reconstruction of msg into dst without
// materializing a dense intermediate: sparse messages touch only their k
// stored coordinates, which is what makes aggregating m compressed messages
// O(k*m) instead of O(dim*m). dst is NOT zeroed first.
func AddDecoded(msg Message, dst []float64) error {
	if err := checkDim(msg, dst); err != nil {
		return err
	}
	switch msg.Enc {
	case EncDense:
		// dst[i] += v four lanes at a time: 1*v is v for every non-NaN v,
		// and for a NaN the quieted v the add would have returned anyway.
		tensor.Axpy(1, msg.Dense, dst)
		return nil
	case EncSparse:
		for j, ix := range msg.Indices {
			dst[ix] += msg.Values[j]
		}
		return nil
	case EncQuant:
		if msg.Norm == 0 {
			return nil
		}
		tensor.AccumulateLevels(levelWindow(dst, msg), msg.Levels, msg.Norm, levelCount(msg.Bits))
		return nil
	}
	return fmt.Errorf("compress: unknown encoding %d", int(msg.Enc))
}

// Compressor maps a vector to a self-describing wire Message; Decode and
// AddDecoded are the way back.
type Compressor interface {
	// CompressInto encodes vec into msg, overwriting every field and reusing
	// msg's arrays where their capacity suffices. The result depends on vec
	// and the compressor's state only, never on what msg held; msg keeps no
	// reference to vec. After an error msg's contents are unspecified.
	CompressInto(vec []float64, msg *Message) error
	// Compress is CompressInto on a zero Message.
	Compress(vec []float64) (Message, error)
	Name() string
}

// reset starts a new encoding in m: scalar fields take their values for a
// float64 wire and all four arrays are emptied with their capacity kept, so
// the scheme that follows grows only the ones it fills.
func (m *Message) reset(dim int, enc Encoding) {
	*m = Message{
		Dim: dim, Enc: enc,
		Dense: m.Dense[:0], Indices: m.Indices[:0], Values: m.Values[:0], Levels: m.Levels[:0],
	}
}

// grow returns s with length n, reallocating only when its capacity is
// short. Contents are unspecified: every caller overwrites all n entries.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Adaptive is implemented by compressors whose aggressiveness can be retuned
// mid-run; the joint AdaComm controller in internal/core drives this to pick
// (tau, ratio) per wall-clock interval. Ratio is the keep-fraction in (0, 1]:
// for sparsifiers it is k/dim, for QSGD it maps linearly to the bit-width.
type Adaptive interface {
	SetRatio(r float64)
	Ratio() float64
}

// BitSetter is implemented by quantizers whose bit-width can be driven
// directly (QSGD, plus any wrapper that forwards to one). It is the precise
// alternative to the coarse ratio→bits rounding of Adaptive.SetRatio: a
// norm-tracking controller computes an integer width and sets exactly that.
type BitSetter interface {
	SetBits(b int)
	Bits() int
}

// clampBits restricts a quantizer bit-width to [1, 8].
func clampBits(b int) int {
	if b < 1 {
		return 1
	}
	if b > 8 {
		return 8
	}
	return b
}

// NormDecayBits maps an observed gradient-norm decay onto a QSGD bit-width:
// starting from bits0 at reference norm norm0, the width grows by one bit
// per halving of the gradient norm (quantization noise scales with the
// vector norm, so as ||g|| shrinks the same absolute precision needs more
// levels — the variance-matching rule behind adaptive-precision schemes).
// The result is clamped to [1, 8]; non-positive or NaN norms return bits0
// unchanged so a cold start or a dead gradient cannot spike the width.
func NormDecayBits(bits0 int, norm0, norm float64) int {
	bits0 = clampBits(bits0)
	if !(norm0 > 0) || !(norm > 0) {
		return bits0
	}
	return clampBits(bits0 + int(math.Round(math.Log2(norm0/norm))))
}

// keepCount converts a keep-ratio to a coordinate count in [1, dim]: the
// ceiling of ratio*dim. A decimal ratio is not a binary fraction, so the
// product can land a rounding or two above the integer the decimal names
// (0.14 * 650 evaluates to 91.00000000000001), and its ceiling would keep
// one coordinate too many. A product within four ulps above an integer is
// taken as that integer: the parse and the multiply err by at most an ulp
// and a half, and a ratio of d decimal digits puts any other product at
// least 10^-d above an integer.
func keepCount(ratio float64, dim int) int {
	p := ratio * float64(dim)
	ulp := math.Float64frombits(math.Float64bits(p)+1) - p // p >= 0
	if f := math.Floor(p); p-f <= 4*ulp {
		p = f
	}
	k := int(math.Ceil(p))
	if k < 1 {
		k = 1
	}
	if k > dim {
		k = dim
	}
	return k
}

// clampRatio restricts an adaptive ratio to (0, 1].
func clampRatio(r float64) float64 {
	if r <= 0 || math.IsNaN(r) {
		return 1e-6
	}
	if r > 1 {
		return 1
	}
	return r
}

// ---------------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------------

// Identity is the lossless dense compressor.
type Identity struct{}

// CompressInto copies the vector into a dense message.
func (Identity) CompressInto(vec []float64, msg *Message) error {
	msg.reset(len(vec), EncDense)
	msg.Dense = append(msg.Dense, vec...)
	return nil
}

// Compress implements Compressor.
func (c Identity) Compress(vec []float64) (msg Message, err error) {
	err = c.CompressInto(vec, &msg)
	return msg, err
}

// Name implements Compressor.
func (Identity) Name() string { return "identity" }

func checkDim(msg Message, dst []float64) error {
	if len(dst) != msg.Dim {
		return fmt.Errorf("compress: dst length %d != message dim %d", len(dst), msg.Dim)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Top-k sparsification
// ---------------------------------------------------------------------------

type topKCompressor struct {
	ratio float64
	// keys holds the k-th bucket's |v| bit patterns, compacted in place to
	// the candidates; it is sized to that bucket, not to the vector
	// (growKeys).
	keys []uint64
	// hist is all zero between calls: each count clears the range it
	// touched, so a 650-wide vector never pays for 4096 counters.
	hist [1 << topBits]uint32
}

// NewTopK returns a top-k sparsifier keeping the k = ceil(ratio*dim)
// largest-magnitude coordinates. Magnitudes are ordered by the IEEE bit
// pattern of |v| (see the package comment): for every non-NaN value that is
// the numeric order, and a NaN ranks above +Inf. A message therefore always
// carries exactly k entries, and a diverged (NaN) coordinate is shipped and
// priced like any other instead of silently emptying the message. Entries
// strictly above the k-th magnitude come first in ascending index order,
// then coordinates tied with it, lowest index first.
func NewTopK(ratio float64) Compressor {
	return &topKCompressor{ratio: clampRatio(ratio)}
}

func (t *topKCompressor) Name() string { return fmt.Sprintf("topk:%g", t.ratio) }

// SetRatio implements Adaptive.
func (t *topKCompressor) SetRatio(r float64) { t.ratio = clampRatio(r) }

// Ratio implements Adaptive.
func (t *topKCompressor) Ratio() float64 { return t.ratio }

func (t *topKCompressor) Compress(vec []float64) (msg Message, err error) {
	err = t.CompressInto(vec, &msg)
	return msg, err
}

func (t *topKCompressor) CompressInto(vec []float64, msg *Message) error {
	dim := len(vec)
	msg.reset(dim, EncSparse)
	if dim == 0 {
		return nil
	}
	k := keepCount(t.ratio, dim)
	thresh := selectKthLargest(vec, k, &t.keys, &t.hist)

	// Fewer than k magnitudes are strictly above the k-th largest; then the
	// coordinates tied with it fill the remaining slots, lowest index first,
	// and at least k-n of them exist.
	idx := grow(msg.Indices, k)
	vals := grow(msg.Values, k)
	n := tensor.EmitAbove(idx, vals, vec, thresh)
	tensor.FillTies(idx, vals, n, vec, thresh)
	msg.Indices, msg.Values = idx, vals
	return nil
}

func scatterSparse(msg Message, dst []float64) error {
	if err := checkDim(msg, dst); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = 0
	}
	for j, ix := range msg.Indices {
		dst[ix] = msg.Values[j]
	}
	return nil
}

const (
	// The first digit is tensor.DigitBits wide, the 11 exponent bits plus the
	// top mantissa bit: half-octave buckets, so a bell-shaped vector leaves a
	// fifth of itself in the k-th bucket and a 650-wide one clears a few
	// dozen counters.
	topBits = tensor.DigitBits

	tailBuckets = 1024 // most counters a tail pass spreads a candidate range over
	smallSelect = 16   // candidates left to an insertion sort
)

// selectKthLargest returns the bit pattern of the k-th largest |v| over vec
// (1 <= k <= len(vec)) under the unsigned order of those patterns. *keys is
// the caller's scratch, grown by growKeys when the k-th bucket outgrows it,
// and hist must be all zero; it is all zero again on return.
//
// It is an exact radix select with no data-dependent branch in any pass
// over the vector: count one digit into hist, walk down from the top bucket
// to the one holding rank k, keep that bucket's members (compacted by
// unconditional stores and a cursor that advances by what they kept), and
// repeat on them. The first digit is fixed, and its count and keep are
// tensor's four-lane CountDigits and KeepDigit over vec itself; every
// later digit is range-adaptive — the candidates' own [lo, hi] spread over
// about one counter per candidate — so a tightly clustered or heavily tied
// vector converges as fast as a spread one.
func selectKthLargest(vec []float64, k int, keys *[]uint64, hist *[1 << topBits]uint32) uint64 {
	// occ marks which 64-bucket groups the vector reaches, so the walk and
	// the clear touch those groups only.
	occ := tensor.CountDigits(vec, hist)
	base := uint64(bits.TrailingZeros64(occ)) * 64
	bucket, rank, members := walkDown(hist[base:bits.Len64(occ)*64], k)
	cand := growKeys(keys, members, len(vec))
	cand = cand[:tensor.KeepDigit(cand, vec, bucket+base)]

	for len(cand) > smallSelect {
		lo, hi := cand[0], cand[0]
		for _, c := range cand[1:] {
			lo = min(lo, c)
			hi = max(hi, c)
		}
		if lo == hi {
			return lo
		}
		// Spread hi-lo over the fewest power-of-two counters that give each
		// candidate about one, at most tailBuckets.
		nb := min(bits.Len(uint(len(cand)-1)), bits.Len(tailBuckets-1))
		shift := max(bits.Len64(hi-lo)-nb, 0)
		for _, c := range cand {
			hist[(c-lo)>>(shift&63)]++
		}
		bucket, rank, _ = walkDown(hist[:(hi-lo)>>shift+1], rank)
		cand = keepBucket(cand, lo, shift, bucket)
	}
	// Insertion sort, descending.
	for i := 1; i < len(cand); i++ {
		c := cand[i]
		j := i
		for ; j > 0 && cand[j-1] < c; j-- {
			cand[j] = cand[j-1]
		}
		cand[j] = c
	}
	return cand[rank-1]
}

// walkDown finds the bucket holding the rank-th largest element given the
// per-bucket counts, returns it with the rank restated within that bucket and
// the bucket's count, and zeroes counts.
func walkDown(counts []uint32, rank int) (bucket uint64, within, members int) {
	b := len(counts) - 1
	for above := 0; ; b-- {
		members = int(counts[b])
		if above+members >= rank {
			within = rank - above
			break
		}
		above += members
	}
	clear(counts)
	return uint64(b), within, members
}

// growKeys returns *keys at its full capacity, grown first if it cannot hold
// a bucket of members out of dim coordinates. tensor.KeepDigit needs one entry
// past the members (or dim in all), and its kernel stores only at a cursor
// 4 short of the end, so members+4 entries keep it running to the last group.
// A short array is replaced by one twice its capacity, at least that long and
// at most dim: a run reallocates it a handful of times at most, and only a
// bucket holding much of the vector (heavy ties) takes it to dim.
func growKeys(keys *[]uint64, members, dim int) []uint64 {
	if need := min(members+4, dim); cap(*keys) < need {
		*keys = make([]uint64, min(max(need, 2*cap(*keys)), dim))
	}
	return (*keys)[:cap(*keys)]
}

// keepBucket compacts keys in place to the members of one bucket, in their
// original order, and returns them.
func keepBucket(keys []uint64, lo uint64, shift int, bucket uint64) []uint64 {
	n := 0
	for _, b := range keys {
		keys[n] = b
		n += int((((b-lo)>>(shift&63) ^ bucket) - 1) >> 63)
	}
	return keys[:n]
}

// ---------------------------------------------------------------------------
// Random-k sparsification
// ---------------------------------------------------------------------------

type randKCompressor struct {
	ratio  float64
	r      *rng.Rand
	idxBuf []int32 // persistent partial-Fisher-Yates pool
}

// NewRandK returns a random-k sparsifier: a uniformly random k-subset of
// coordinates scaled by dim/k, so E[decompress(compress(v))] = v. The
// subset stream is drawn from r.
func NewRandK(ratio float64, r *rng.Rand) Compressor {
	if r == nil {
		panic("compress: NewRandK needs a random stream")
	}
	return &randKCompressor{ratio: clampRatio(ratio), r: r}
}

func (c *randKCompressor) Name() string { return fmt.Sprintf("randk:%g", c.ratio) }

// SetRatio implements Adaptive.
func (c *randKCompressor) SetRatio(r float64) { c.ratio = clampRatio(r) }

// Ratio implements Adaptive.
func (c *randKCompressor) Ratio() float64 { return c.ratio }

func (c *randKCompressor) Compress(vec []float64) (msg Message, err error) {
	err = c.CompressInto(vec, &msg)
	return msg, err
}

func (c *randKCompressor) CompressInto(vec []float64, msg *Message) error {
	dim := len(vec)
	msg.reset(dim, EncSparse)
	k := keepCount(c.ratio, dim)
	if len(c.idxBuf) != dim {
		c.idxBuf = make([]int32, dim)
		for i := range c.idxBuf {
			c.idxBuf[i] = int32(i)
		}
	}
	// Partial Fisher-Yates: the first k entries after k swaps are a uniform
	// k-subset; the pool persists across calls, which keeps Compress O(k).
	for i := 0; i < k; i++ {
		j := i + c.r.Intn(dim-i)
		c.idxBuf[i], c.idxBuf[j] = c.idxBuf[j], c.idxBuf[i]
	}
	scale := float64(dim) / float64(k)
	idx := grow(msg.Indices, k)
	vals := grow(msg.Values, k)
	copy(idx, c.idxBuf[:k])
	for i, ix := range idx {
		vals[i] = vec[ix] * scale
	}
	msg.Indices, msg.Values = idx, vals
	return nil
}

// ---------------------------------------------------------------------------
// QSGD-style stochastic quantization
// ---------------------------------------------------------------------------

type qsgdCompressor struct {
	bits int
	r    *rng.Rand
}

// NewQSGD returns a stochastic b-bit quantizer (1 <= bits <= 8): coordinates
// are projected onto 2^bits - 1 levels of the L2 ball with stochastic
// rounding, so the reconstruction is unbiased. The rounding stream is drawn
// from r.
func NewQSGD(bits int, r *rng.Rand) Compressor {
	if bits < 1 || bits > 8 {
		panic(fmt.Sprintf("compress: QSGD bits %d out of [1,8]", bits))
	}
	if r == nil {
		panic("compress: NewQSGD needs a random stream")
	}
	return &qsgdCompressor{bits: bits, r: r}
}

func (q *qsgdCompressor) Name() string { return fmt.Sprintf("qsgd:%d", q.bits) }

// SetRatio implements Adaptive: the keep-ratio maps linearly onto the
// bit-width, ratio 1 = 8 bits.
func (q *qsgdCompressor) SetRatio(r float64) {
	b := int(math.Round(clampRatio(r) * 8))
	if b < 1 {
		b = 1
	}
	if b > 8 {
		b = 8
	}
	q.bits = b
}

// Ratio implements Adaptive.
func (q *qsgdCompressor) Ratio() float64 { return float64(q.bits) / 8 }

// SetBits implements BitSetter: the width is set exactly (clamped to [1, 8]),
// bypassing the ratio rounding.
func (q *qsgdCompressor) SetBits(b int) { q.bits = clampBits(b) }

// Bits implements BitSetter.
func (q *qsgdCompressor) Bits() int { return q.bits }

// levelCount is s, the number of quantization levels a bit-width spans.
func levelCount(bits int) float64 { return float64(int(1)<<bits - 1) }

func (q *qsgdCompressor) Compress(vec []float64) (msg Message, err error) {
	err = q.CompressInto(vec, &msg)
	return msg, err
}

// drawTile is how many rounding draws CompressInto takes from the stream at a
// time: 2 KiB of stack, a multiple of the kernels' four lanes. It is invisible
// in the output (see "QSGD" in the package comment).
const drawTile = 256

func (q *qsgdCompressor) CompressInto(vec []float64, msg *Message) error {
	dim := len(vec)
	norm := 0.0
	for _, v := range vec {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	msg.reset(dim, EncQuant)
	levels := grow(msg.Levels, dim)
	msg.Norm, msg.Bits, msg.Levels = norm, q.bits, levels
	if norm == 0 {
		clear(levels) // a recycled array holds the last message's
		return nil
	}
	s := levelCount(q.bits)
	var u [drawTile]float64
	for lo := 0; lo < dim; lo += drawTile {
		hi := min(lo+drawTile, dim)
		q.r.FillFloat64(u[:hi-lo])
		tensor.QuantizeLevels(levels[lo:hi], vec[lo:hi], u[:hi-lo], norm, s)
	}
	return nil
}

func dequantize(msg Message, dst []float64) error {
	if err := checkDim(msg, dst); err != nil {
		return err
	}
	tensor.DequantizeLevels(levelWindow(dst, msg), msg.Levels, msg.Norm, levelCount(msg.Bits))
	return nil
}

// levelWindow is the part of dst a quantized message's levels cover: all of
// it for a message a compressor built. A hand-made message with too few
// levels reaches a prefix; one with too many panics here, capacity or not.
func levelWindow(dst []float64, msg Message) []float64 {
	return dst[:len(msg.Levels):len(dst)]
}

// ---------------------------------------------------------------------------
// Error feedback
// ---------------------------------------------------------------------------

// ErrorFeedback wraps a Compressor with a residual accumulator: each round
// compresses vec + residual and keeps what the wire format dropped, so the
// error is re-injected instead of lost. For contractive compressors (top-k)
// the residual norm stays bounded, which is what restores convergence of
// compressed PASGD (Karimireddy et al. 2019).
type ErrorFeedback struct {
	inner  Compressor
	resid  []float64
	decBuf []float64 // dense reconstruction; sparse messages never need it
}

// WithErrorFeedback wraps c with residual accumulation.
func WithErrorFeedback(c Compressor) *ErrorFeedback {
	return &ErrorFeedback{inner: c}
}

// Name implements Compressor.
func (e *ErrorFeedback) Name() string { return e.inner.Name() + "+ef" }

// ResidualNorm returns the L2 norm of the accumulated residual (for tests
// and diagnostics).
func (e *ErrorFeedback) ResidualNorm() float64 {
	s := 0.0
	for _, v := range e.resid {
		s += v * v
	}
	return math.Sqrt(s)
}

// SetRatio implements Adaptive when the inner compressor does.
func (e *ErrorFeedback) SetRatio(r float64) {
	if a, ok := e.inner.(Adaptive); ok {
		a.SetRatio(r)
	}
}

// Ratio implements Adaptive when the inner compressor does (1 otherwise).
func (e *ErrorFeedback) Ratio() float64 {
	if a, ok := e.inner.(Adaptive); ok {
		return a.Ratio()
	}
	return 1
}

// SetBits implements BitSetter when the inner compressor does.
func (e *ErrorFeedback) SetBits(b int) {
	if s, ok := e.inner.(BitSetter); ok {
		s.SetBits(b)
	}
}

// Bits implements BitSetter when the inner compressor does (0 otherwise).
func (e *ErrorFeedback) Bits() int {
	if s, ok := e.inner.(BitSetter); ok {
		return s.Bits()
	}
	return 0
}

// Compress implements Compressor.
func (e *ErrorFeedback) Compress(vec []float64) (msg Message, err error) {
	err = e.CompressInto(vec, &msg)
	return msg, err
}

// CompressInto compresses vec plus the carried residual into msg and updates
// the residual with what this round's message failed to represent.
//
// The sum is formed in the residual itself, which the inner compressor then
// reads: it keeps no reference to vec, so no second copy is needed. A sparse
// message reconstructs to zero everywhere but its k kept coordinates, and
// x - 0 == x for every x (NaN and -0 included), so the sum already is the
// new residual but at those k entries, which are corrected in place. That is
// bit-identical to subtracting the dense reconstruction as long as the
// message's indices are distinct, which every sparsifier in this package
// guarantees. Any other message is decoded and subtracted in place. After an
// error the residual holds the sum.
func (e *ErrorFeedback) CompressInto(vec []float64, msg *Message) error {
	dim := len(vec)
	if len(e.resid) != dim {
		e.resid = make([]float64, dim)
	}
	resid := e.resid
	tensor.Add(resid, vec, resid)
	if err := e.inner.CompressInto(resid, msg); err != nil {
		return err
	}
	if msg.Enc == EncSparse {
		if err := checkDim(*msg, resid); err != nil {
			return err
		}
		vals := msg.Values[:len(msg.Indices)]
		for j, ix := range msg.Indices {
			resid[ix] -= vals[j]
		}
		return nil
	}
	if len(e.decBuf) != dim {
		e.decBuf = make([]float64, dim)
	}
	if err := Decode(*msg, e.decBuf); err != nil {
		return err
	}
	tensor.Sub(resid, resid, e.decBuf)
	return nil
}
