package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/rng"
)

// The implementations this package shipped before the histogram selection,
// kept as oracles: the new code must produce the same threshold, the same
// message and the same residual, bit for bit, on every non-NaN input.

// refSelectKthLargest is the three-way-partition quickselect: the k-th
// largest value of a, permuting a.
func refSelectKthLargest(a []float64, k int) float64 {
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

type refTopK struct {
	ratio  float64
	magBuf []float64
}

func (t *refTopK) Name() string { return "ref-topk" }

func (t *refTopK) Compress(vec []float64) (Message, error) {
	dim := len(vec)
	k := keepCount(t.ratio, dim)
	if cap(t.magBuf) < dim {
		t.magBuf = make([]float64, dim)
	}
	mags := t.magBuf[:dim]
	for i, v := range vec {
		mags[i] = math.Abs(v)
	}
	thresh := refSelectKthLargest(mags, k)
	idx := make([]int32, 0, k)
	vals := make([]float64, 0, k)
	for i, v := range vec {
		if math.Abs(v) > thresh {
			idx = append(idx, int32(i))
			vals = append(vals, v)
		}
	}
	for i := 0; len(idx) < k && i < dim; i++ {
		if math.Abs(vec[i]) == thresh {
			idx = append(idx, int32(i))
			vals = append(vals, vec[i])
		}
	}
	return Message{Dim: dim, Enc: EncSparse, Indices: idx, Values: vals}, nil
}

// The oracles build fresh messages only; CompressInto exists to satisfy the
// interface.
func (t *refTopK) CompressInto(vec []float64, msg *Message) (err error) {
	*msg, err = t.Compress(vec)
	return err
}

func (e *refErrorFeedback) CompressInto(vec []float64, msg *Message) (err error) {
	*msg, err = e.Compress(vec)
	return err
}

// refErrorFeedback subtracts the dense reconstruction over all dim
// coordinates.
type refErrorFeedback struct {
	inner              Compressor
	resid, buf, decBuf []float64
}

func (e *refErrorFeedback) Name() string { return e.inner.Name() + "+ef" }

func (e *refErrorFeedback) Compress(vec []float64) (Message, error) {
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
	if err := Decode(msg, e.decBuf); err != nil {
		return Message{}, err
	}
	for i := range e.resid {
		e.resid[i] = e.buf[i] - e.decBuf[i]
	}
	return msg, nil
}

// Input families for the oracles. Every one is a pure function of (dim,
// seed) and none produces a NaN except rawBits.

// heavyTies draws from five distinct magnitudes, zero among them.
func heavyTies(dim int, seed uint64) []float64 {
	r := rng.New(seed)
	vals := []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, 3, -3, 1e-300}
	v := make([]float64, dim)
	for i := range v {
		v[i] = vals[r.Intn(len(vals))]
	}
	return v
}

// decades spreads magnitudes over forty decades.
func decades(dim int, seed uint64) []float64 {
	r := rng.New(seed)
	v := make([]float64, dim)
	for i := range v {
		v[i] = r.NormFloat64() * math.Pow(10, 40*r.Float64()-20)
	}
	return v
}

// clustered packs every magnitude into a few ulps around one value, with a
// lone outlier: the input a fixed-radix tail digit gains nothing on.
func clustered(dim int, seed uint64) []float64 {
	r := rng.New(seed)
	base := math.Float64bits(1.2345)
	v := make([]float64, dim)
	for i := range v {
		v[i] = math.Float64frombits(base+uint64(r.Intn(40))) * float64(1-2*r.Intn(2))
	}
	v[r.Intn(dim)] = 1e9
	return v
}

// rawBits reinterprets random words as floats: NaNs, infinities and
// subnormals included.
func rawBits(dim int, seed uint64) []float64 {
	r := rng.New(seed)
	v := make([]float64, dim)
	for i := range v {
		v[i] = math.Float64frombits(r.Uint64())
	}
	return v
}

var oracleInputs = []struct {
	name   string
	gen    func(dim int, seed uint64) []float64
	hasNaN bool
}{
	{"gaussian", testVec, false},
	{"heavy-ties", heavyTies, false},
	{"40-decades", decades, false},
	{"clustered", clustered, false},
	{"raw-bits", rawBits, true},
}

// oracleDims covers every dim to 130 (each small-case branch of the
// selection), a stride to 3000, and the two the benchmark serves.
func oracleDims() []int {
	var dims []int
	for d := 1; d <= 130; d++ {
		dims = append(dims, d)
	}
	for d := 131; d <= 3000; d += 41 {
		dims = append(dims, d)
	}
	return append(dims, 650, 3000, 16400)
}

// selectBySort is the specification: the k-th largest |v| bit pattern.
func selectBySort(vec []float64, k int) uint64 {
	keys := make([]uint64, len(vec))
	for i, v := range vec {
		keys[i] = math.Float64bits(v) & absMask
	}
	slices.Sort(keys)
	return keys[len(keys)-k]
}

func runSelect(vec []float64, k int, hist *[1 << topBits]uint32) uint64 {
	return selectKthLargest(vec, k, make([]uint64, len(vec)), hist)
}

func TestSelectKthLargest(t *testing.T) {
	a := []float64{3, 1, -4, 1, 5, -9, 2, 6, 5, 3}
	// Descending magnitudes: 9 6 5 5 4 3 3 2 1 1
	want := []float64{9, 6, 5, 5, 4, 3, 3, 2, 1, 1}
	var hist [1 << topBits]uint32
	for k := 1; k <= len(a); k++ {
		if got := math.Float64frombits(runSelect(a, k, &hist)); got != want[k-1] {
			t.Fatalf("k=%d: got %v, want %v", k, got, want[k-1])
		}
	}
}

func TestSelectMatchesSort(t *testing.T) {
	var hist [1 << topBits]uint32 // shared: every call must leave it zero
	for _, in := range oracleInputs {
		for _, dim := range oracleDims() {
			vec := in.gen(dim, uint64(dim))
			orig := append([]float64(nil), vec...)
			ks := []int{1, dim, keepCount(0.1, dim), keepCount(0.25, dim), 1 + dim/2}
			for _, k := range ks {
				want := selectBySort(vec, k)
				if got := runSelect(vec, k, &hist); got != want {
					t.Fatalf("%s dim=%d k=%d: got %#x, want %#x", in.name, dim, k, got, want)
				}
				if !in.hasNaN {
					mags := make([]float64, dim)
					for i, v := range vec {
						mags[i] = math.Abs(v)
					}
					if ref := refSelectKthLargest(mags, k); math.Float64bits(ref) != want {
						t.Fatalf("%s dim=%d k=%d: quickselect %v, sort %#x", in.name, dim, k, ref, want)
					}
				}
			}
			for i := range vec {
				if math.Float64bits(vec[i]) != math.Float64bits(orig[i]) {
					t.Fatalf("%s dim=%d: selection modified its input at %d", in.name, dim, i)
				}
			}
		}
	}
	for i, c := range hist {
		if c != 0 {
			t.Fatalf("hist[%d] = %d after selection, want all zero", i, c)
		}
	}
}

func sameMessage(a, b Message) bool {
	if a.Dim != b.Dim || a.Enc != b.Enc || a.Wire != b.Wire ||
		!slices.Equal(a.Indices, b.Indices) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// TestTopKMessagesMatchReference drives each top-k chain and its reference
// twin through 50 successive rounds of fresh input (so the error-feedback
// residual carries) and holds every message and every residual to equality.
func TestTopKMessagesMatchReference(t *testing.T) {
	dims := []int{1, 2, 3, 16, 17, 18, 100, 650, 1000, 3000, 16400}
	for _, spec := range []string{"topk:0.25", "topk:0.1+ef", "topk:0.25+f32", "topk:0.25+ef+f32", "topk:1+ef"} {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range oracleInputs {
			if in.hasNaN {
				continue // the quickselect has no defined answer on NaN
			}
			for _, dim := range dims {
				got, err := s.New(nil)
				if err != nil {
					t.Fatal(err)
				}
				var ref Compressor = &refTopK{ratio: s.Ratio}
				if s.Wire == WireFloat32 {
					ref = wireNarrow{inner: ref}
				}
				var refEF *refErrorFeedback
				if s.ErrorFeedback {
					refEF = &refErrorFeedback{inner: ref}
					ref = refEF
				}
				for round := 0; round < 50; round++ {
					vec := in.gen(dim, uint64(1000*dim+round))
					gm, err := got.Compress(vec)
					if err != nil {
						t.Fatal(err)
					}
					rm, _ := ref.Compress(vec)
					if !sameMessage(gm, rm) {
						t.Fatalf("%s %s dim=%d round %d: message differs from the reference", spec, in.name, dim, round)
					}
					if refEF == nil {
						continue
					}
					resid := got.(*ErrorFeedback).resid
					for i := range resid {
						if math.Float64bits(resid[i]) != math.Float64bits(refEF.resid[i]) {
							t.Fatalf("%s %s dim=%d round %d: residual[%d] = %v, reference %v",
								spec, in.name, dim, round, i, resid[i], refEF.resid[i])
						}
					}
				}
			}
		}
	}
}

// TestErrorFeedbackDenseInnerMatchesReference pins the path sparse messages
// no longer take: a quantized inner still subtracts its dense
// reconstruction.
func TestErrorFeedbackDenseInnerMatchesReference(t *testing.T) {
	got := WithErrorFeedback(NewQSGD(4, rng.New(5)))
	ref := &refErrorFeedback{inner: NewQSGD(4, rng.New(5))}
	for round := 0; round < 20; round++ {
		vec := testVec(333, uint64(round))
		gm, err := got.Compress(vec)
		if err != nil {
			t.Fatal(err)
		}
		rm, _ := ref.Compress(vec)
		if !slices.Equal(gm.Levels, rm.Levels) || gm.Norm != rm.Norm {
			t.Fatalf("round %d: quantized message differs", round)
		}
		if !slices.Equal(got.resid, ref.resid) {
			t.Fatalf("round %d: residual differs", round)
		}
	}
}

// TestTopKOrderContract pins the magnitude order on the values a float
// comparison mishandles or a diverged run produces. At the parent a single
// NaN made the message empty.
func TestTopKOrderContract(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	cases := []struct {
		name  string
		vec   []float64
		ratio float64
		want  []int32
	}{
		{"one NaN outranks everything", []float64{1, -7, nan, 3}, 0.25, []int32{2}},
		{"NaN above +Inf and -Inf", []float64{inf, 2, nan, -inf}, 0.75, []int32{2, 0, 3}},
		{"Inf above finite, signs tie by index", []float64{math.MaxFloat64, -inf, inf, 1}, 0.5, []int32{1, 2}},
		{"negative NaN is still a NaN", []float64{1, math.Copysign(nan, -1), 5}, 0.3, []int32{1}},
		{"all NaN fills by index", []float64{nan, nan, nan, nan}, 0.5, []int32{0, 1}},
		{"+0 and -0 tie", []float64{negZero, 0, negZero, 0}, 0.5, []int32{0, 1}},
		{"subnormal above zero", []float64{0, sub, negZero, -2 * sub}, 0.5, []int32{3, 1}},
		{"zeros fill after the nonzeros", []float64{0, 4, 0, -4, 0}, 0.8, []int32{1, 3, 0, 2}},
		{"all equal", []float64{-2, 2, 2, -2, 2, 2}, 0.5, []int32{0, 1, 2}},
		{"k=1", []float64{1, -9, 9, 3}, 1e-9, []int32{1}},
		{"k=dim: the smallest comes last", []float64{3, 1, nan, -2}, 1, []int32{0, 2, 3, 1}},
		{"dim 1", []float64{nan}, 0.5, []int32{0}},
	}
	for _, c := range cases {
		msg, err := NewTopK(c.ratio).Compress(c.vec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		k := keepCount(c.ratio, len(c.vec))
		if len(msg.Indices) != k || msg.Bytes() != 12*k {
			t.Fatalf("%s: %d entries, %d bytes; want k=%d", c.name, len(msg.Indices), msg.Bytes(), k)
		}
		if !slices.Equal(msg.Indices, c.want) {
			t.Fatalf("%s: indices %v, want %v", c.name, msg.Indices, c.want)
		}
		for j, ix := range msg.Indices {
			if math.Float64bits(msg.Values[j]) != math.Float64bits(c.vec[ix]) {
				t.Fatalf("%s: value %d is %v, want the input's %v", c.name, j, msg.Values[j], c.vec[ix])
			}
		}
	}
}

// TestTopKCompressorsShareNothing is for the race detector: the cluster
// pool runs one compressor per worker from its fan-out, so two instances
// must not share selection scratch. Each goroutine's messages must equal
// the serial ones.
func TestTopKCompressorsShareNothing(t *testing.T) {
	const workers, rounds, dim = 4, 20, 1500
	build := func() Compressor { return WithErrorFeedback(NewTopK(0.1)) }
	serial := build()
	want := make([]Message, rounds)
	for r := range want {
		want[r], _ = serial.Compress(testVec(dim, uint64(r)))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := build()
			for r := 0; r < rounds; r++ {
				if got, _ := c.Compress(testVec(dim, uint64(r))); !sameMessage(got, want[r]) {
					t.Errorf("worker %d round %d: message differs from the serial run", w, r)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTopKCompressAllocs pins the fresh path exactly: the two message
// slices, plus the Message itself under a wrapper — error feedback hands
// &msg to its inner compressor through the interface, which moves the local
// to the heap (the reason the engines compress into fields and slice
// elements, where TestCompressIntoSteadyStateAllocFree holds them to zero).
func TestTopKCompressAllocs(t *testing.T) {
	for _, dim := range []int{650, 16400} {
		vec := testVec(dim, 9)
		for want, c := range map[float64]Compressor{2: NewTopK(0.25), 3: WithErrorFeedback(NewTopK(0.1))} {
			if _, err := c.Compress(vec); err != nil { // first call sizes the scratch
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(20, func() { c.Compress(vec) }); n != want {
				t.Fatalf("%s dim=%d: %v allocs per Compress, want %v", c.Name(), dim, n, want)
			}
		}
	}
}

// FuzzSelectKthLargest reads the input as raw float64 words, so the fuzzer
// reaches NaN payloads, subnormals and exact ties directly.
func FuzzSelectKthLargest(f *testing.F) {
	words := func(ws ...uint64) []byte {
		b := make([]byte, 0, 8*len(ws))
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	one := math.Float64bits(1)
	f.Add(words(one), uint16(0))
	f.Add(words(0, 1<<63, 1, 1<<63|1, 0), uint16(2))
	f.Add(words(math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)), one, one+1, one+2), uint16(1))
	var cluster, spread []uint64
	for i := uint64(0); i < 40; i++ {
		cluster = append(cluster, one+i%7, 1<<63|(one+i%5))
		spread = append(spread, i<<58|i*0x9E3779B97F4A7C15>>6)
	}
	f.Add(words(cluster...), uint16(33))
	f.Add(words(spread...), uint16(7))

	var hist [1 << topBits]uint32
	f.Fuzz(func(t *testing.T, raw []byte, kSeed uint16) {
		dim := len(raw) / 8
		if dim == 0 {
			return
		}
		vec := make([]float64, dim)
		for i := range vec {
			vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		k := 1 + int(kSeed)%dim
		want := selectBySort(vec, k)
		if got := runSelect(vec, k, &hist); got != want {
			t.Fatalf("dim=%d k=%d: got %#x, want %#x", dim, k, got, want)
		}
		msg, err := (&topKCompressor{ratio: float64(k) / float64(dim)}).Compress(vec)
		if err != nil {
			t.Fatal(err)
		}
		kk := keepCount(float64(k)/float64(dim), dim)
		if len(msg.Indices) != kk {
			t.Fatalf("dim=%d k=%d: message has %d entries", dim, kk, len(msg.Indices))
		}
	})
}

// The scalar QSGD loops this package ran before internal/tensor's kernels,
// kept as oracles. CompressInto, Decode and AddDecoded must match them field
// for field on either kernel tier — and CompressInto must leave the rounding
// stream exactly where one Float64 call per coordinate leaves it.

// refQSGDCompressInto is the quantizer with one draw per coordinate taken
// inside the loop.
func refQSGDCompressInto(vec []float64, bits int, r *rng.Rand, msg *Message) {
	dim := len(vec)
	norm := 0.0
	for _, v := range vec {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	*msg = Message{Dim: dim, Enc: EncQuant, Norm: norm, Bits: bits, Levels: make([]int16, dim)}
	if norm == 0 {
		return
	}
	s := float64(int(1)<<bits - 1)
	for i, v := range vec {
		a := math.Abs(v) / norm * s
		l := math.Floor(a)
		if r.Float64() < a-l {
			l++
		}
		lv := int16(l)
		if v < 0 {
			lv = -lv
		}
		msg.Levels[i] = lv
	}
}

func refDequantize(msg Message, dst []float64) {
	s := float64(int(1)<<msg.Bits - 1)
	for i, lv := range msg.Levels {
		dst[i] = msg.Norm * float64(lv) / s
	}
}

func refAddDequantized(msg Message, dst []float64) {
	if msg.Norm == 0 {
		return
	}
	s := float64(int(1)<<msg.Bits - 1)
	for i, lv := range msg.Levels {
		dst[i] += msg.Norm * float64(lv) / s
	}
}

// refQSGDChain is a qsgd spec's whole chain over the scalar loops: the
// quantizer, the float32 norm, and error feedback through the scalar decode.
type refQSGDChain struct {
	bits        int
	r           *rng.Rand
	f32, ef     bool
	resid, work []float64
}

func (c *refQSGDChain) compress(vec []float64) (msg Message) {
	in := vec
	if c.ef {
		if len(c.resid) != len(vec) {
			c.resid, c.work = make([]float64, len(vec)), make([]float64, len(vec))
		}
		for i, v := range vec {
			c.work[i] = v + c.resid[i]
		}
		in = c.work
	}
	refQSGDCompressInto(in, c.bits, c.r, &msg)
	if c.f32 {
		msg.Wire, msg.Norm = WireFloat32, Narrow32(msg.Norm)
	}
	if c.ef {
		refDequantize(msg, c.resid)
		for i := range c.resid {
			c.resid[i] = c.work[i] - c.resid[i]
		}
	}
	return msg
}

// qsgdOracleInputs are the vectors the quantizer's special paths see: a zero
// norm (no draw at all), a diverged coordinate (NaN norm: every level is the
// conversion of a NaN), an infinite one (levels 0 beside one NaN), and squares
// that underflow out of the norm — all of them (norm 0) or all but one.
var qsgdOracleInputs = []struct {
	name string
	gen  func(dim int, seed uint64) []float64
}{
	{"finite", testVec},
	{"all-zero", func(dim int, _ uint64) []float64 { return make([]float64, dim) }},
	{"one-NaN", func(dim int, seed uint64) []float64 { return plant(testVec(dim, seed), seed, -math.NaN()) }},
	{"one-Inf", func(dim int, seed uint64) []float64 { return plant(testVec(dim, seed), seed, math.Inf(-1)) }},
	{"underflow", func(dim int, seed uint64) []float64 {
		v := testVec(dim, seed)
		for i := range v {
			v[i] = math.Copysign(1e-170, v[i])
		}
		if seed%2 == 1 {
			plant(v, seed, -1e-150)
		}
		return v
	}},
}

func plant(v []float64, seed uint64, x float64) []float64 {
	if len(v) > 0 {
		v[int(seed%uint64(len(v)))] = x
	}
	return v
}

func TestQSGDMatchesScalarReference(t *testing.T) {
	for _, dim := range []int{0, 1, 3, 255, 256, 257, 650, 16400} {
		for bits := 1; bits <= 8; bits++ {
			for _, in := range qsgdOracleInputs {
				for _, mod := range []string{"", "+f32", "+ef"} {
					seed := uint64(100*dim + bits)
					gotR, refR := rng.New(seed), rng.New(seed)
					s, err := ParseSpec(fmt.Sprintf("qsgd:%d%s", bits, mod))
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.New(gotR)
					if err != nil {
						t.Fatal(err)
					}
					ref := &refQSGDChain{bits: bits, r: refR, f32: s.Wire == WireFloat32, ef: s.ErrorFeedback}
					msg := new(Message)
					for round := 0; round < 3; round++ {
						vec := in.gen(dim, seed+uint64(round))
						if err := got.CompressInto(vec, msg); err != nil {
							t.Fatal(err)
						}
						if want := ref.compress(vec); !identicalMessages(*msg, want) {
							t.Fatalf("qsgd:%d%s %s dim=%d round %d: message differs from the scalar reference (norm %v vs %v)",
								bits, mod, in.name, dim, round, msg.Norm, want.Norm)
						}
						if ef, ok := got.(*ErrorFeedback); ok && !sameBits(ef.resid, ref.resid) {
							t.Fatalf("qsgd:%d%s %s dim=%d round %d: residual differs from the scalar reference", bits, mod, in.name, dim, round)
						}
						if *gotR != *refR {
							t.Fatalf("qsgd:%d%s %s dim=%d round %d: the rounding stream is not where one draw per coordinate leaves it",
								bits, mod, in.name, dim, round)
						}
					}
				}
			}
		}
	}
}

// TestQSGDDrawsNothingOnZeroNorm: a zero vector consumes no draw, at any
// length, so a client that had nothing to send leaves its stream alone.
func TestQSGDDrawsNothingOnZeroNorm(t *testing.T) {
	r, untouched := rng.New(9), rng.New(9)
	q := NewQSGD(4, r)
	for _, dim := range []int{0, 1, 256, 650} {
		if _, err := q.Compress(make([]float64, dim)); err != nil {
			t.Fatal(err)
		}
	}
	if *r != *untouched {
		t.Fatal("compressing zero vectors advanced the rounding stream")
	}
}

func TestQuantDecodeMatchesScalarReference(t *testing.T) {
	for _, dim := range []int{0, 1, 3, 255, 256, 257, 650} {
		for bits := 1; bits <= 8; bits++ {
			for _, in := range qsgdOracleInputs {
				seed := uint64(7*dim + bits)
				var msg Message
				refQSGDCompressInto(in.gen(dim, seed), bits, rng.New(seed), &msg)
				for _, norm := range []float64{msg.Norm, 0, Narrow32(msg.Norm)} {
					msg.Norm = norm
					got, want := testVec(dim, seed+1), testVec(dim, seed+1)
					if err := AddDecoded(msg, got); err != nil {
						t.Fatal(err)
					}
					refAddDequantized(msg, want)
					if !sameBits(got, want) {
						t.Fatalf("AddDecoded qsgd:%d %s dim=%d norm=%v differs from the scalar reference", bits, in.name, dim, norm)
					}
					if err := Decode(msg, got); err != nil {
						t.Fatal(err)
					}
					refDequantize(msg, want)
					if !sameBits(got, want) {
						t.Fatalf("Decode qsgd:%d %s dim=%d norm=%v differs from the scalar reference", bits, in.name, dim, norm)
					}
				}
			}
		}
	}
}
