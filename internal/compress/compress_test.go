package compress

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

func testVec(dim int, seed uint64) []float64 {
	r := rng.New(seed)
	v := make([]float64, dim)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func TestIdentityRoundTripExact(t *testing.T) {
	v := testVec(257, 1)
	var c Compressor // the zero Compressor is the identity
	msg, err := c.Compress(v)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Bytes() != 8*len(v) {
		t.Fatalf("identity bytes %d, want %d", msg.Bytes(), 8*len(v))
	}
	out := make([]float64, len(v))
	if err := Decode(msg, out); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if out[i] != v[i] {
			t.Fatalf("identity not exact at %d: %v != %v", i, out[i], v[i])
		}
	}
	// The message must not alias the input.
	v[0] += 1
	if msg.Dense[0] == v[0] {
		t.Fatal("identity message aliases input")
	}
}

func TestTopKSupport(t *testing.T) {
	dim := 200
	v := testVec(dim, 2)
	c := mustNew(t, "topk:0.1", 0) // k = 20
	msg, err := c.Compress(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Indices) != 20 {
		t.Fatalf("topk support %d, want 20", len(msg.Indices))
	}
	if msg.Bytes() != 20*12 {
		t.Fatalf("topk bytes %d, want 240", msg.Bytes())
	}
	// Every kept magnitude must be >= every dropped magnitude.
	kept := map[int32]bool{}
	minKept := math.Inf(1)
	for j, ix := range msg.Indices {
		kept[ix] = true
		if msg.Values[j] != v[ix] {
			t.Fatalf("topk value mismatch at %d", ix)
		}
		if m := math.Abs(v[ix]); m < minKept {
			minKept = m
		}
	}
	for i, x := range v {
		if !kept[int32(i)] && math.Abs(x) > minKept {
			t.Fatalf("dropped coordinate %d (|%v|) exceeds kept minimum %v", i, x, minKept)
		}
	}
	out := make([]float64, dim)
	if err := Decode(msg, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if kept[int32(i)] && out[i] != v[i] {
			t.Fatal("kept coordinate altered")
		}
		if !kept[int32(i)] && out[i] != 0 {
			t.Fatal("dropped coordinate nonzero")
		}
	}
}

func TestTopKTies(t *testing.T) {
	v := []float64{1, -1, 1, -1, 1, -1}
	c := mustNew(t, "topk:0.5", 0) // k = 3 among all-equal magnitudes
	msg, err := c.Compress(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Indices) != 3 {
		t.Fatalf("tie support %d, want 3", len(msg.Indices))
	}
	// Ties resolve in ascending index order.
	for j, ix := range msg.Indices {
		if ix != int32(j) {
			t.Fatalf("tie order %v, want [0 1 2]", msg.Indices)
		}
	}
}

// unbiasednessCheck compresses v repeatedly with a fresh stochastic stream
// per trial and asserts the empirical mean reconstruction approaches v.
func unbiasednessCheck(t *testing.T, v []float64, spec string, trials int, tol float64) {
	t.Helper()
	dim := len(v)
	sum := make([]float64, dim)
	out := make([]float64, dim)
	root := rng.New(99)
	for n := 0; n < trials; n++ {
		msg, err := newOn(t, spec, root.Split()).Compress(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := Decode(msg, out); err != nil {
			t.Fatal(err)
		}
		for i := range sum {
			sum[i] += out[i]
		}
	}
	num, den := 0.0, 0.0
	for i := range v {
		d := sum[i]/float64(trials) - v[i]
		num += d * d
		den += v[i] * v[i]
	}
	if rel := math.Sqrt(num / den); rel > tol {
		t.Fatalf("mean reconstruction off by %v (relative), want <= %v", rel, tol)
	}
}

func TestRandKUnbiased(t *testing.T) {
	v := testVec(64, 3)
	unbiasednessCheck(t, v, "randk:0.25", 4000, 0.1)
}

func TestQSGDUnbiased(t *testing.T) {
	v := testVec(64, 4)
	unbiasednessCheck(t, v, "qsgd:2", 4000, 0.1)
}

func TestQSGDRoundTripShape(t *testing.T) {
	v := testVec(100, 5)
	msg, err := mustNew(t, "qsgd:4", 6).Compress(v)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := 8 + (100*5+7)/8
	if msg.Bytes() != wantBytes {
		t.Fatalf("qsgd bytes %d, want %d", msg.Bytes(), wantBytes)
	}
	out := make([]float64, 100)
	if err := Decode(msg, out); err != nil {
		t.Fatal(err)
	}
	// Reconstruction error is bounded by one quantization level per coord.
	s := float64(15)
	for i := range v {
		if math.Abs(out[i]-v[i]) > msg.Norm/s+1e-12 {
			t.Fatalf("qsgd error at %d exceeds one level: %v vs %v", i, out[i], v[i])
		}
	}
}

func TestQSGDZeroVector(t *testing.T) {
	msg, err := mustNew(t, "qsgd:4", 7).Compress(make([]float64, 10))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 10)
	if err := Decode(msg, out); err != nil {
		t.Fatal(err)
	}
	for _, x := range out {
		if x != 0 {
			t.Fatal("zero vector must round-trip to zero")
		}
	}
}

func TestErrorFeedbackResidualBounded(t *testing.T) {
	// Compressing the same vector under top-k with error feedback: the
	// residual norm must stay bounded (contractive compressor), and the
	// running mean of the emitted messages must converge to the input —
	// nothing is permanently lost.
	dim := 128
	v := testVec(dim, 8)
	vNorm := norm(v)
	ef := mustNew(t, "topk:0.1+ef", 0)
	out := make([]float64, dim)
	acc := make([]float64, dim)
	rounds := 200
	for n := 0; n < rounds; n++ {
		msg, err := ef.Compress(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := Decode(msg, out); err != nil {
			t.Fatal(err)
		}
		for i := range acc {
			acc[i] += out[i]
		}
		if rn := norm(ef.resid); rn > 5*vNorm {
			t.Fatalf("round %d: residual norm %v blew past 5*||v||=%v", n, rn, 5*vNorm)
		}
	}
	num := 0.0
	for i := range v {
		d := acc[i]/float64(rounds) - v[i]
		num += d * d
	}
	if rel := math.Sqrt(num) / vNorm; rel > 0.05 {
		t.Fatalf("error feedback lost mass: mean output off by %v relative", rel)
	}
}

// TestErrorFeedbackNameAndAdaptive: an error-feedback top-k's spec prints
// back as the form it was typed in, and SetRatio retunes the inner
// sparsifier through the feedback loop.
func TestErrorFeedbackNameAndAdaptive(t *testing.T) {
	s, err := ParseSpec("topk:0.2+ef")
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "topk:0.2+ef" {
		t.Fatalf("name %q", s.String())
	}
	ef := mustNew(t, "topk:0.2+ef", 0)
	ef.SetRatio(0.5)
	if ef.ratio != 0.5 {
		t.Fatalf("ratio %v after SetRatio(0.5)", ef.ratio)
	}
	msg, err := ef.Compress(testVec(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Indices) != 50 {
		t.Fatalf("support %d after SetRatio(0.5) on dim 100, want 50", len(msg.Indices))
	}
}

// TestSetRatioUnderEveryModifier: SetRatio retunes a sparsifier's
// keep-fraction with or without error feedback and a float32 wire, and the
// next message keeps that many coordinates; the identity has nothing to
// retune and stays dense.
func TestSetRatioUnderEveryModifier(t *testing.T) {
	for _, base := range []string{"topk:0.5", "randk:0.5", "identity"} {
		for _, mod := range []string{"", "+ef", "+f32", "+ef+f32"} {
			spec := base + mod
			c := mustNew(t, spec, 1)
			c.SetRatio(0.125)
			msg, err := c.Compress(testVec(64, 2))
			if err != nil {
				t.Fatal(err)
			}
			if base == "identity" {
				if len(msg.Dense) != 64 || len(msg.Indices) != 0 {
					t.Fatalf("%s: SetRatio changed the identity's message", spec)
				}
				continue
			}
			if c.ratio != 0.125 || len(msg.Indices) != 8 {
				t.Fatalf("%s: ratio %g and %d coordinates after SetRatio(0.125) on dim 64, want 8", spec, c.ratio, len(msg.Indices))
			}
		}
	}
}

func TestAdaptiveRatioChangesSupport(t *testing.T) {
	v := testVec(100, 9)
	c := mustNew(t, "topk:0.1", 0)
	msg, _ := c.Compress(v)
	if len(msg.Indices) != 10 {
		t.Fatalf("support %d, want 10", len(msg.Indices))
	}
	c.SetRatio(0.5)
	msg, _ = c.Compress(v)
	if len(msg.Indices) != 50 {
		t.Fatalf("support %d after SetRatio(0.5), want 50", len(msg.Indices))
	}
}

func TestQSGDAdaptiveRatio(t *testing.T) {
	q := mustNew(t, "qsgd:8", 10)
	q.SetRatio(0.5)
	if q.bits != 4 {
		t.Fatalf("qsgd at %d bits after SetRatio(0.5), want 4", q.bits)
	}
	q.SetRatio(0.01)
	if q.bits != 1 {
		t.Fatalf("qsgd at %d bits after SetRatio(0.01), want the floor of 1", q.bits)
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"none", Spec{}},
		{"identity", Spec{Kind: KindIdentity}},
		{"topk:0.01", Spec{Kind: KindTopK, Ratio: 0.01}},
		{"randk:0.05+ef", Spec{Kind: KindRandK, Ratio: 0.05, ErrorFeedback: true}},
		{"qsgd:4", Spec{Kind: KindQSGD, Bits: 4}},
		{"topk:0.25+ef", Spec{Kind: KindTopK, Ratio: 0.25, ErrorFeedback: true}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if _, err := ParseSpec(got.String()); err != nil {
			t.Fatalf("String round-trip of %q failed: %v", c.in, err)
		}
	}
	// NaN ratios fail every comparison and used to run as top-1; the
	// arguments of none and identity used to be dropped.
	for _, bad := range []string{"topk", "topk:2", "topk:0", "qsgd:9", "qsgd:x", "zip:3", "none+ef", "topk:0.1+zstd",
		"topk:NaN", "randk:NaN", "randk:-NaN+ef", "identity:5", "none:x", "none:", ":0.5", "identity:+f32"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

// FuzzParseSpec: the grammar users type after -compress never panics, and a
// spec it accepts prints (String) as one that parses back to the same Spec.
// The seed corpus is the forms above, good and bad, so plain `go test`
// replays them.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{"none", "", "none+f32", "identity", "identity+ef+f32", "topk:0.01", "randk:0.05+ef",
		"qsgd:4+f32", "topk:0.25+ef+f32", "topk:NaN", "randk:NaN", "identity:5", "none:x", "topk:1e-320",
		"topk:0x1p-3", "qsgd:+4", "qsgd:04", "topk:1", "+f32+f32", "topk:.5+f32+ef", "qsgd:9", "topk:Inf"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %+v, whose String %q does not parse: %v", in, s, s.String(), err)
		}
		if back != s {
			t.Fatalf("ParseSpec(%q) = %+v, String %q parses to %+v", in, s, s.String(), back)
		}
	})
}

func TestSpecWireBytesMatchesMessage(t *testing.T) {
	dim := 333
	v := testVec(dim, 11)
	specs := []Spec{
		{Kind: KindIdentity},
		{Kind: KindTopK, Ratio: 0.1},
		{Kind: KindRandK, Ratio: 0.05},
		{Kind: KindQSGD, Bits: 4},
		{Kind: KindTopK, Ratio: 0.1, ErrorFeedback: true},
	}
	for _, s := range specs {
		c, err := s.New(rng.New(12))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		msg, err := c.Compress(v)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if msg.Bytes() != s.WireBytes(dim) {
			t.Fatalf("%s: message bytes %d != WireBytes %d", s, msg.Bytes(), s.WireBytes(dim))
		}
	}
	if none := (Spec{}); none.WireBytes(dim) != 8*dim {
		t.Fatal("none spec must charge dense payload")
	}
}

// TestKeepCountIsTheDecimalCeiling: for every ratio of three decimals the
// flag grammar spells, k is the integer ceiling of j*dim/1000 — a product that
// rounds a hair above an integer (0.14 * 650 = 91.00000000000001) keeps no
// extra coordinate — and a message prices what Spec.WireBytes charges.
func TestKeepCountIsTheDecimalCeiling(t *testing.T) {
	for _, dim := range []int{1, 100, 650, 1000, 16400} {
		vec := testVec(dim, uint64(dim))
		for j := 1; j <= 999; j++ {
			for _, base := range []string{"topk", "randk"} {
				s, err := ParseSpec(fmt.Sprintf("%s:0.%03d", base, j))
				if err != nil {
					t.Fatal(err)
				}
				want := (j*dim + 999) / 1000
				if k := keepCount(s.Ratio, dim); k != want {
					t.Fatalf("%s at dim %d: k = %d, want %d", s, dim, k, want)
				}
				c, err := s.New(rng.New(uint64(j)))
				if err != nil {
					t.Fatal(err)
				}
				msg, err := c.Compress(vec)
				if err != nil {
					t.Fatal(err)
				}
				if len(msg.Indices) != want || msg.Bytes() != s.WireBytes(dim) {
					t.Fatalf("%s at dim %d: %d entries, %d bytes; want %d entries, WireBytes %d",
						s, dim, len(msg.Indices), msg.Bytes(), want, s.WireBytes(dim))
				}
			}
		}
	}
}

func TestSpecNewNone(t *testing.T) {
	c, err := Spec{}.New(nil)
	if err != nil || !reflect.ValueOf(c).IsZero() {
		t.Fatalf("None spec: got (%+v, %v), want the zero Compressor (the identity)", c, err)
	}
}

func TestDecompressDimMismatch(t *testing.T) {
	var c Compressor
	msg, _ := c.Compress(make([]float64, 4))
	if err := Decode(msg, make([]float64, 5)); err == nil {
		t.Fatal("accepted wrong dst length")
	}
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func TestDecodeMatchesDecompress(t *testing.T) {
	// Message-driven Decode must agree with the per-encoding decoder each
	// compressor's own Decompress method forwarded to before Decode became
	// the only way back, and AddDecoded must accumulate the same
	// reconstruction.
	decompress := map[Kind]func(Message, []float64) error{
		KindIdentity: func(msg Message, dst []float64) error {
			if err := checkDim(msg, dst); err != nil {
				return err
			}
			copy(dst, msg.Dense)
			return nil
		},
		KindTopK:  scatterSparse,
		KindRandK: scatterSparse,
		KindQSGD:  dequantize,
	}
	r := rng.New(60)
	vec := make([]float64, 257)
	for i := range vec {
		vec[i] = r.NormFloat64()
	}
	specs := []Spec{
		{Kind: KindIdentity},
		{Kind: KindTopK, Ratio: 0.1},
		{Kind: KindRandK, Ratio: 0.2},
		{Kind: KindQSGD, Bits: 5},
	}
	for _, spec := range specs {
		c, err := spec.New(r.Split())
		if err != nil {
			t.Fatal(err)
		}
		msg, err := c.Compress(vec)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(vec))
		if err := decompress[spec.Kind](msg, want); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(vec))
		if err := Decode(msg, got); err != nil {
			t.Fatal(err)
		}
		base := make([]float64, len(vec))
		for i := range base {
			base[i] = float64(i)
		}
		acc := append([]float64(nil), base...)
		if err := AddDecoded(msg, acc); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: Decode diverged at %d: %v vs %v", spec, i, got[i], want[i])
			}
			if diff := acc[i] - base[i] - want[i]; diff < -1e-12 || diff > 1e-12 {
				t.Fatalf("%s: AddDecoded diverged at %d", spec, i)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	dst := make([]float64, 3)
	bad := Message{Dim: 5, Enc: EncDense, Dense: make([]float64, 5)}
	if err := Decode(bad, dst); err == nil {
		t.Fatal("Decode accepted dim mismatch")
	}
	if err := AddDecoded(bad, dst); err == nil {
		t.Fatal("AddDecoded accepted dim mismatch")
	}
	unknown := Message{Dim: 3, Enc: Encoding(9)}
	if err := Decode(unknown, dst); err == nil {
		t.Fatal("Decode accepted unknown encoding")
	}
	if err := AddDecoded(unknown, dst); err == nil {
		t.Fatal("AddDecoded accepted unknown encoding")
	}
}

// TestTopKKeysSizedToBucket: a selection's candidate keys grow to the k-th
// radix bucket, and its list to the coordinates at or above that bucket,
// not to the vector. Four top-k compressors at ratio 0.25 share one
// selection, as an engine's workers do; over 50 rounds of Gaussian input at
// dim 16 400 each is reallocated at most three times in all, the keys stay
// under a quarter of dim and the list (a quarter of dim and the bucket,
// doubled once) under two thirds. A vector of one magnitude
// is one bucket and grows both to dim, and no further.
func TestTopKKeysSizedToBucket(t *testing.T) {
	const dim = 16400
	sel := new(Selection)
	cs := make([]Compressor, 4)
	for i := range cs {
		cs[i] = (Spec{Kind: KindTopK, Ratio: 0.25}).NewWire(func() *rng.Rand { return nil }, sel)
	}
	var msg Message
	grows, last, listGrows, lastList := 0, 0, 0, 0
	for round := 0; round < 50; round++ {
		for i := range cs {
			cs[i].CompressInto(testVec(dim, uint64(round*len(cs)+i)), &msg)
			if cap(sel.keys) != last {
				grows, last = grows+1, cap(sel.keys)
			}
			if cap(sel.at) != lastList {
				listGrows, lastList = listGrows+1, cap(sel.at)
			}
		}
	}
	if grows > 3 || last >= dim/4 {
		t.Fatalf("keys grown %d times to %d of %d entries: want at most 3, under a quarter", grows, last, dim)
	}
	if listGrows > 3 || lastList >= 2*dim/3 {
		t.Fatalf("list grown %d times to %d of %d entries: want at most 3, under two thirds", listGrows, lastList, dim)
	}
	ties := make([]float64, dim)
	for i := range ties {
		ties[i] = float64(1 - 2*(i%2))
	}
	for i := range cs[:2] {
		cs[i].CompressInto(ties, &msg)
		if cap(sel.keys) != dim || cap(sel.at) != dim {
			t.Fatalf("one magnitude: keys hold %d entries and the list %d, want dim %d", cap(sel.keys), cap(sel.at), dim)
		}
	}
}

// TestSharedSelectionMatchesPrivate: compressors that share one Selection,
// each at its own dimension and called in turn over vectors of several
// shapes, ship the
// messages — and keep the error-feedback residuals — that the same
// compressors on private selections do, bit for bit, and a selection's
// histogram is all zero between calls. A call leaves nothing in a selection
// that the next one reads.
func TestSharedSelectionMatchesPrivate(t *testing.T) {
	specs := []string{"topk:0.1", "topk:0.01+ef", "topk:0.3+ef+f32", "topk:0.5"}
	dims := []int{650, 16400, 7, 4112}
	sel := new(Selection)
	split := func() *rng.Rand { return nil } // top-k draws nothing
	shared := make([]Compressor, len(specs))
	private := make([]Compressor, len(specs))
	for i, str := range specs {
		spec, err := ParseSpec(str)
		if err != nil {
			t.Fatal(err)
		}
		shared[i] = spec.NewWire(split, sel)
		if private[i], err = spec.New(nil); err != nil {
			t.Fatal(err)
		}
	}
	var got, want Message
	for round := 0; round < 6; round++ {
		for i := range specs {
			dim := dims[i]
			vec := testVec(dim, uint64(10*round+i))
			switch round % 3 {
			case 1:
				vec = heavyTies(dim, uint64(round+i))
			case 2:
				vec = clustered(dim, uint64(round+i))
			}
			shared[i].CompressInto(vec, &got)
			private[i].CompressInto(vec, &want)
			if !identicalMessages(got, want) {
				t.Fatalf("round %d, %s at dim %d: the shared selection's message differs from a private one's", round, specs[i], dim)
			}
			if *sel.hist != ([1 << topBits]uint32{}) {
				t.Fatalf("round %d, %s: the histogram is not all zero after a call", round, specs[i])
			}
		}
	}
	for i := range specs {
		if !sameBits(shared[i].resid, private[i].resid) {
			t.Errorf("%s: the shared selection's residual differs from a private one's", specs[i])
		}
	}
}

// TestNewWirePanicsOnInvalidSpec: NewWire's callers validate first, so a
// spec that fails Validate is a caller's bug and panics; a valid spec never
// does, and None draws no stream.
func TestNewWirePanicsOnInvalidSpec(t *testing.T) {
	split := func() *rng.Rand { return rng.New(1) }
	for _, bad := range []Spec{{Kind: KindQSGD, Bits: 99}, {Kind: KindTopK, Ratio: 2}, {Kind: Kind(42)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewWire did not panic", bad)
				}
			}()
			bad.NewWire(split, new(Selection))
		}()
	}
	noStream := func() *rng.Rand { t.Fatal("None drew a stream"); return nil }
	if c := (Spec{}).NewWire(noStream, new(Selection)); c.kind != None || c.f32 || c.ef {
		t.Fatalf("None built %+v, want the identity", c)
	}
}
