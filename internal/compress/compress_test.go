package compress

import (
	"math"
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
	c := Identity{}
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
	c := NewTopK(0.1) // k = 20
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
	c := NewTopK(0.5) // k = 3 among all-equal magnitudes
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
func unbiasednessCheck(t *testing.T, v []float64, build func(r *rng.Rand) Compressor, trials int, tol float64) {
	t.Helper()
	dim := len(v)
	sum := make([]float64, dim)
	out := make([]float64, dim)
	root := rng.New(99)
	for n := 0; n < trials; n++ {
		c := build(root.Split())
		msg, err := c.Compress(v)
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
	unbiasednessCheck(t, v, func(r *rng.Rand) Compressor { return NewRandK(0.25, r) }, 4000, 0.1)
}

func TestQSGDUnbiased(t *testing.T) {
	v := testVec(64, 4)
	unbiasednessCheck(t, v, func(r *rng.Rand) Compressor { return NewQSGD(2, r) }, 4000, 0.1)
}

func TestQSGDRoundTripShape(t *testing.T) {
	v := testVec(100, 5)
	c := NewQSGD(4, rng.New(6))
	msg, err := c.Compress(v)
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
	c := NewQSGD(4, rng.New(7))
	msg, err := c.Compress(make([]float64, 10))
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
	ef := WithErrorFeedback(NewTopK(0.1))
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
		if rn := ef.ResidualNorm(); rn > 5*vNorm {
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

func TestErrorFeedbackNameAndAdaptive(t *testing.T) {
	ef := WithErrorFeedback(NewTopK(0.2))
	if ef.Name() != "topk:0.2+ef" {
		t.Fatalf("name %q", ef.Name())
	}
	ef.SetRatio(0.5)
	if ef.Ratio() != 0.5 {
		t.Fatalf("ratio %v after SetRatio(0.5)", ef.Ratio())
	}
}

func TestAdaptiveRatioChangesSupport(t *testing.T) {
	v := testVec(100, 9)
	c := NewTopK(0.1)
	a := c.(Adaptive)
	msg, _ := c.Compress(v)
	if len(msg.Indices) != 10 {
		t.Fatalf("support %d, want 10", len(msg.Indices))
	}
	a.SetRatio(0.5)
	msg, _ = c.Compress(v)
	if len(msg.Indices) != 50 {
		t.Fatalf("support %d after SetRatio(0.5), want 50", len(msg.Indices))
	}
}

func TestQSGDAdaptiveRatio(t *testing.T) {
	q := NewQSGD(8, rng.New(10)).(Adaptive)
	q.SetRatio(0.5)
	if q.Ratio() != 0.5 {
		t.Fatalf("qsgd ratio %v, want 0.5 (4 bits)", q.Ratio())
	}
	q.SetRatio(0.01)
	if q.Ratio() != 1.0/8 {
		t.Fatalf("qsgd ratio %v, want 1/8 (floor at 1 bit)", q.Ratio())
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

func TestSpecNewNone(t *testing.T) {
	c, err := Spec{}.New(nil)
	if err != nil || c != (Identity{}) {
		t.Fatalf("None spec: got (%v, %v), want (Identity{}, nil)", c, err)
	}
}

func TestDecompressDimMismatch(t *testing.T) {
	c := Identity{}
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
