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
package compress

import (
	"fmt"
	"math"

	"repro/internal/rng"
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
// populated, according to Enc. Messages do not alias the compressor's
// scratch buffers and stay valid across subsequent Compress calls.
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

// Decode reconstructs msg into dst, overwriting it entirely (including zeros
// for coordinates a sparse message dropped). It is the message-driven
// counterpart of Compressor.Decompress: any wire message can be decoded
// without the compressor that produced it, which is what lets the receiving
// side of a simulated link (internal/comm) reconstruct payloads it did not
// compress.
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
		for i, v := range msg.Dense {
			dst[i] += v
		}
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
		s := float64(int(1)<<msg.Bits - 1)
		for i, lv := range msg.Levels {
			dst[i] += msg.Norm * float64(lv) / s
		}
		return nil
	}
	return fmt.Errorf("compress: unknown encoding %d", int(msg.Enc))
}

// Compressor maps a vector to a wire Message and back. Decompress writes the
// reconstruction into dst (len(dst) must equal msg.Dim); it overwrites dst
// entirely, including zeros for coordinates a sparse message dropped.
type Compressor interface {
	Compress(vec []float64) (Message, error)
	Decompress(msg Message, dst []float64) error
	Name() string
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

// keepCount converts a keep-ratio to a coordinate count in [1, dim].
func keepCount(ratio float64, dim int) int {
	k := int(math.Ceil(ratio * float64(dim)))
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

// Compress copies the vector into a dense message.
func (Identity) Compress(vec []float64) (Message, error) {
	return Message{Dim: len(vec), Enc: EncDense, Dense: append([]float64(nil), vec...)}, nil
}

// Decompress copies the dense payload back.
func (Identity) Decompress(msg Message, dst []float64) error {
	if err := checkDim(msg, dst); err != nil {
		return err
	}
	copy(dst, msg.Dense)
	return nil
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
	ratio  float64
	magBuf []float64
}

// NewTopK returns a top-k sparsifier keeping the ceil(ratio*dim)
// largest-magnitude coordinates.
func NewTopK(ratio float64) Compressor {
	return &topKCompressor{ratio: clampRatio(ratio)}
}

func (t *topKCompressor) Name() string { return fmt.Sprintf("topk:%g", t.ratio) }

// SetRatio implements Adaptive.
func (t *topKCompressor) SetRatio(r float64) { t.ratio = clampRatio(r) }

// Ratio implements Adaptive.
func (t *topKCompressor) Ratio() float64 { return t.ratio }

func (t *topKCompressor) Compress(vec []float64) (Message, error) {
	dim := len(vec)
	k := keepCount(t.ratio, dim)
	if cap(t.magBuf) < dim {
		t.magBuf = make([]float64, dim)
	}
	mags := t.magBuf[:dim]
	for i, v := range vec {
		mags[i] = math.Abs(v)
	}
	thresh := selectKthLargest(mags, k)

	idx := make([]int32, 0, k)
	vals := make([]float64, 0, k)
	for i, v := range vec {
		if math.Abs(v) > thresh {
			idx = append(idx, int32(i))
			vals = append(vals, v)
		}
	}
	// Fill the remaining slots with threshold-magnitude coordinates in
	// ascending index order so ties resolve deterministically.
	for i := 0; len(idx) < k && i < dim; i++ {
		if math.Abs(vec[i]) == thresh {
			idx = append(idx, int32(i))
			vals = append(vals, vec[i])
		}
	}
	return Message{Dim: dim, Enc: EncSparse, Indices: idx, Values: vals}, nil
}

func (t *topKCompressor) Decompress(msg Message, dst []float64) error {
	return scatterSparse(msg, dst)
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

// selectKthLargest returns the k-th largest value of a, permuting a in the
// process (callers pass scratch). Deterministic middle-element pivots keep
// runs reproducible; three-way partitioning handles duplicate magnitudes.
func selectKthLargest(a []float64, k int) float64 {
	lo, hi := 0, len(a) // active window [lo, hi)
	idx := k - 1        // target position in descending order
	for hi-lo > 1 {
		p := a[lo+(hi-lo)/2]
		lt, gt := lo, hi // invariant: [lo,lt) > p, [gt,hi) < p
		for i := lo; i < gt; {
			switch {
			case a[i] > p:
				a[i], a[lt] = a[lt], a[i]
				lt++
				i++
			case a[i] < p:
				gt--
				a[i], a[gt] = a[gt], a[i]
			default:
				i++
			}
		}
		switch {
		case idx < lt:
			hi = lt
		case idx >= gt:
			lo = gt
		default:
			return p
		}
	}
	return a[lo]
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

func (c *randKCompressor) Compress(vec []float64) (Message, error) {
	dim := len(vec)
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
	idx := make([]int32, k)
	vals := make([]float64, k)
	copy(idx, c.idxBuf[:k])
	for i, ix := range idx {
		vals[i] = vec[ix] * scale
	}
	return Message{Dim: dim, Enc: EncSparse, Indices: idx, Values: vals}, nil
}

func (c *randKCompressor) Decompress(msg Message, dst []float64) error {
	return scatterSparse(msg, dst)
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

func (q *qsgdCompressor) levels() float64 { return float64(int(1)<<q.bits - 1) }

func (q *qsgdCompressor) Compress(vec []float64) (Message, error) {
	dim := len(vec)
	norm := 0.0
	for _, v := range vec {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	msg := Message{Dim: dim, Enc: EncQuant, Norm: norm, Bits: q.bits, Levels: make([]int16, dim)}
	if norm == 0 {
		return msg, nil
	}
	s := q.levels()
	for i, v := range vec {
		a := math.Abs(v) / norm * s
		l := math.Floor(a)
		if q.r.Float64() < a-l {
			l++
		}
		lv := int16(l)
		if v < 0 {
			lv = -lv
		}
		msg.Levels[i] = lv
	}
	return msg, nil
}

func (q *qsgdCompressor) Decompress(msg Message, dst []float64) error {
	return dequantize(msg, dst)
}

func dequantize(msg Message, dst []float64) error {
	if err := checkDim(msg, dst); err != nil {
		return err
	}
	s := float64(int(1)<<msg.Bits - 1)
	for i, lv := range msg.Levels {
		dst[i] = msg.Norm * float64(lv) / s
	}
	return nil
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
	buf    []float64
	decBuf []float64
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

// Compress compresses vec plus the carried residual and updates the residual
// with what this round's message failed to represent.
func (e *ErrorFeedback) Compress(vec []float64) (Message, error) {
	dim := len(vec)
	if len(e.resid) != dim {
		e.resid = make([]float64, dim)
		e.buf = make([]float64, dim)
		e.decBuf = make([]float64, dim)
	}
	for i, v := range vec {
		e.buf[i] = v + e.resid[i]
	}
	msg, err := e.inner.Compress(e.buf)
	if err != nil {
		return Message{}, err
	}
	if err := e.inner.Decompress(msg, e.decBuf); err != nil {
		return Message{}, err
	}
	for i := range e.resid {
		e.resid[i] = e.buf[i] - e.decBuf[i]
	}
	return msg, nil
}

// Decompress implements Compressor.
func (e *ErrorFeedback) Decompress(msg Message, dst []float64) error {
	return e.inner.Decompress(msg, dst)
}
