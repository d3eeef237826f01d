package compress

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestParseWire(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want WireFormat
	}{
		{"", WireFloat64},
		{"float64", WireFloat64},
		{"f64", WireFloat64},
		{"float32", WireFloat32},
		{"f32", WireFloat32},
	} {
		got, err := ParseWire(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseWire(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseWire("float16"); err == nil {
		t.Error("ParseWire(float16) succeeded, want error")
	}
}

func TestParseSpecWireModifier(t *testing.T) {
	for _, str := range []string{"none+f32", "identity+f32", "topk:0.25+ef+f32", "qsgd:4+f32"} {
		s, err := ParseSpec(str)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", str, err)
		}
		if s.Wire != WireFloat32 {
			t.Errorf("ParseSpec(%q).Wire = %v, want WireFloat32", str, s.Wire)
		}
		if !s.Enabled() {
			t.Errorf("ParseSpec(%q).Enabled() = false, want true", str)
		}
		if got, err := ParseSpec(s.String()); err != nil || got != s {
			t.Errorf("round-trip %q -> %q -> %+v (err %v)", str, s.String(), got, err)
		}
	}
	if _, err := ParseSpec("none+ef+f32"); err == nil {
		t.Error("ParseSpec(none+ef+f32) succeeded, want error (ef needs a compressor)")
	}
	if _, err := ParseSpec("identity+f16"); err == nil {
		t.Error("ParseSpec(identity+f16) succeeded, want error")
	}
}

func TestSpecLossless(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want bool
	}{
		{Spec{}, true},
		{Spec{Kind: KindIdentity}, true},
		{Spec{Kind: KindIdentity, ErrorFeedback: true}, true},
		{Spec{Kind: KindIdentity, Wire: WireFloat32}, false},
		{Spec{Wire: WireFloat32}, false},
		{Spec{Kind: KindTopK, Ratio: 0.5}, false},
	} {
		if got := tc.spec.Lossless(); got != tc.want {
			t.Errorf("%v.Lossless() = %v, want %v", tc.spec, got, tc.want)
		}
	}
}

// TestWireNarrowRoundTrip pins the error bound of the float32 boundary:
// every reconstructed value is within one float32 ulp (relative 2^-24) of
// the original, and re-encoding the narrowed values is exact.
func TestWireNarrowRoundTrip(t *testing.T) {
	spec := Spec{Wire: WireFloat32}
	c, err := spec.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	dim := 257
	vec := make([]float64, dim)
	for i := range vec {
		vec[i] = (r.Float64()*2 - 1) * math.Pow(10, float64(i%7)-3)
	}
	msg, err := c.Compress(vec)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, dim)
	if err := Decode(msg, dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range vec {
		got := dst[i]
		if math.Float64bits(got) != math.Float64bits(Narrow32(v)) {
			t.Fatalf("coordinate %d: decode %v != Narrow32 %v", i, got, Narrow32(v))
		}
		if rel := math.Abs(got-v) / math.Abs(v); rel > math.Pow(2, -24) {
			t.Fatalf("coordinate %d: relative error %g exceeds 2^-24", i, rel)
		}
	}
	// Idempotence: a second narrowing round-trips bit-exactly.
	msg2, err := c.Compress(dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg2.Dense {
		if math.Float64bits(msg2.Dense[i]) != math.Float64bits(dst[i]) {
			t.Fatalf("coordinate %d: narrowing not idempotent", i)
		}
	}
}

// TestWireBytesHalved pins the acceptance criterion: identity-kind payloads
// are exactly half their float64 size under the float32 wire, in both the
// data-independent Spec.WireBytes and the materialized Message.Bytes.
func TestWireBytesHalved(t *testing.T) {
	dim := 100
	wide := Spec{Kind: KindIdentity}
	narrow := Spec{Kind: KindIdentity, Wire: WireFloat32}
	if w, n := wide.WireBytes(dim), narrow.WireBytes(dim); n*2 != w {
		t.Fatalf("WireBytes: narrow %d, wide %d — want exactly half", n, w)
	}
	if got := narrow.WireBytes(dim); got != 4*dim {
		t.Fatalf("narrow WireBytes = %d, want %d", narrow.WireBytes(dim), 4*dim)
	}
	// The wire-only spec prices like narrow identity.
	if got := (Spec{Wire: WireFloat32}).WireBytes(dim); got != 4*dim {
		t.Fatalf("wire-only WireBytes = %d, want %d", got, 4*dim)
	}
	c, err := narrow.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := c.Compress(make([]float64, dim))
	if err != nil {
		t.Fatal(err)
	}
	if got := msg.Bytes(); got != 4*dim {
		t.Fatalf("Message.Bytes = %d, want %d", got, 4*dim)
	}
}

// TestWireSparseInteraction: under a sparsifying spec the float32 wire
// narrows VALUES only — the selected indices are identical to the wide
// spec's, and each value is the float32 rounding of the wide value.
func TestWireSparseInteraction(t *testing.T) {
	dim := 64
	r := rng.New(11)
	vec := make([]float64, dim)
	for i := range vec {
		vec[i] = r.NormFloat64()
	}
	wide, err := (Spec{Kind: KindTopK, Ratio: 0.25}).New(nil)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := (Spec{Kind: KindTopK, Ratio: 0.25, Wire: WireFloat32}).New(nil)
	if err != nil {
		t.Fatal(err)
	}
	mw, _ := wide.Compress(vec)
	mn, _ := narrow.Compress(vec)
	if len(mw.Indices) != len(mn.Indices) {
		t.Fatalf("index counts differ: %d vs %d", len(mw.Indices), len(mn.Indices))
	}
	for i, ix := range mw.Indices {
		if mn.Indices[i] != ix {
			t.Fatalf("index %d differs: %d vs %d", i, mn.Indices[i], ix)
		}
		if math.Float64bits(mn.Values[i]) != math.Float64bits(Narrow32(mw.Values[i])) {
			t.Fatalf("value %d: %v is not the narrowing of %v", i, mn.Values[i], mw.Values[i])
		}
	}
	// Payload: 4 index bytes stay, 8 value bytes become 4.
	k := len(mw.Indices)
	if got, want := mn.Bytes(), k*(4+4); got != want {
		t.Fatalf("narrow sparse Bytes = %d, want %d", got, want)
	}
	if got, want := mw.Bytes(), k*(4+8); got != want {
		t.Fatalf("wide sparse Bytes = %d, want %d", got, want)
	}
}

// TestWireQSGDInteraction: quantization levels are exact ints either way;
// only the norm narrows, and the payload shrinks by exactly 4 bytes.
func TestWireQSGDInteraction(t *testing.T) {
	dim := 64
	vec := make([]float64, dim)
	r := rng.New(13)
	for i := range vec {
		vec[i] = r.NormFloat64()
	}
	wide, err := (Spec{Kind: KindQSGD, Bits: 4}).New(rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := (Spec{Kind: KindQSGD, Bits: 4, Wire: WireFloat32}).New(rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	mw, _ := wide.Compress(vec)
	mn, _ := narrow.Compress(vec)
	for i := range mw.Levels {
		if mn.Levels[i] != mw.Levels[i] {
			t.Fatalf("level %d differs: %d vs %d", i, mn.Levels[i], mw.Levels[i])
		}
	}
	if math.Float64bits(mn.Norm) != math.Float64bits(Narrow32(mw.Norm)) {
		t.Fatalf("norm %v is not the narrowing of %v", mn.Norm, mw.Norm)
	}
	if got, want := mw.Bytes()-mn.Bytes(), 4; got != want {
		t.Fatalf("qsgd payload shrank by %d bytes, want %d", got, want)
	}
}

// TestWireErrorFeedbackCapturesNarrowing: with EF wrapped outside the
// narrowing boundary, the residual after one round equals exactly what the
// float32 rounding dropped.
func TestWireErrorFeedbackCapturesNarrowing(t *testing.T) {
	dim := 32
	spec := Spec{Kind: KindIdentity, ErrorFeedback: true, Wire: WireFloat32}
	c, err := spec.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	ef, ok := c.(*ErrorFeedback)
	if !ok {
		t.Fatalf("expected ErrorFeedback outermost, got %T", c)
	}
	r := rng.New(17)
	vec := make([]float64, dim)
	for i := range vec {
		vec[i] = r.NormFloat64() * 1e-3
	}
	msg, err := c.Compress(vec)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vec {
		if math.Float64bits(msg.Dense[i]) != math.Float64bits(Narrow32(v)) {
			t.Fatalf("coordinate %d not narrowed", i)
		}
	}
	wantResid := 0.0
	for _, v := range vec {
		d := v - Narrow32(v)
		wantResid += d * d
	}
	wantResid = math.Sqrt(wantResid)
	if got := ef.ResidualNorm(); math.Abs(got-wantResid) > 1e-18 {
		t.Fatalf("residual norm %g, want narrowing loss %g", got, wantResid)
	}
}

// TestWireAdaptivePassthrough: the narrowing wrapper forwards SetRatio/Ratio
// to an adaptive inner compressor.
func TestWireAdaptivePassthrough(t *testing.T) {
	c, err := (Spec{Kind: KindTopK, Ratio: 0.5, Wire: WireFloat32}).New(nil)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := c.(Adaptive)
	if !ok {
		t.Fatalf("narrowed topk is not Adaptive (%T)", c)
	}
	a.SetRatio(0.125)
	if got := a.Ratio(); got != 0.125 {
		t.Fatalf("Ratio() = %g after SetRatio(0.125)", got)
	}
	msg, err := c.Compress(make([]float64, 64))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(msg.Indices); got != 8 {
		t.Fatalf("kept %d coordinates after SetRatio(0.125) on dim 64, want 8", got)
	}
}
