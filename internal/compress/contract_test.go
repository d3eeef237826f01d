package compress

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// contractSpecs is every scheme, QSGD at every bit width, with every wrapper
// combination.
func contractSpecs() []string {
	bases := []string{"identity", "topk:0.1", "randk:0.1"}
	for b := 1; b <= 8; b++ {
		bases = append(bases, fmt.Sprintf("qsgd:%d", b))
	}
	var specs []string
	for _, base := range bases {
		for _, mod := range []string{"", "+ef", "+f32", "+ef+f32"} {
			specs = append(specs, base+mod)
		}
	}
	return specs
}

var contractDims = []int{0, 1, 650, 16400}

// mustNew is spec's compressor on a stream seeded with seed.
func mustNew(t testing.TB, spec string, seed uint64) *Compressor {
	t.Helper()
	return newOn(t, spec, rng.New(seed))
}

// newOn is spec's compressor on stream r.
func newOn(t testing.TB, spec string, r *rng.Rand) *Compressor {
	t.Helper()
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.New(r)
	if err != nil {
		t.Fatal(err)
	}
	return &c
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// identicalMessages holds two messages to equality field by field, array
// lengths included (a recycled message's unused arrays must be empty, as a
// fresh one's are nil).
func identicalMessages(a, b Message) bool {
	return a.Dim == b.Dim && a.Enc == b.Enc && a.Wire == b.Wire && a.Bits == b.Bits &&
		math.Float64bits(a.Norm) == math.Float64bits(b.Norm) &&
		sameBits(a.Dense, b.Dense) && slices.Equal(a.Indices, b.Indices) &&
		sameBits(a.Values, b.Values) && slices.Equal(a.Levels, b.Levels)
}

// dirty makes msg the worst thing a free list could hand back: another
// scheme's encoding of a larger vector at a larger k, every array then
// filled with junk to its full capacity, every scalar field set.
func dirty(t *testing.T, msg *Message, round, dim int) {
	t.Helper()
	prev := []string{"qsgd:8+f32", "topk:0.9", "identity+f32", "randk:1"}[round%4]
	big := dim + dim/2 + 3
	if round%3 == 2 {
		big = dim / 2 // sometimes too small: the arrays must grow
	}
	mustNew(t, prev, 99).CompressInto(testVec(big, 77), msg)
	msg.Dense = msg.Dense[:cap(msg.Dense)]
	msg.Values = msg.Values[:cap(msg.Values)]
	msg.Indices = msg.Indices[:cap(msg.Indices)]
	msg.Levels = msg.Levels[:cap(msg.Levels)]
	for i := range msg.Dense {
		msg.Dense[i] = math.NaN()
	}
	for i := range msg.Values {
		msg.Values[i] = math.NaN()
	}
	for i := range msg.Indices {
		msg.Indices[i] = math.MaxInt32
	}
	for i := range msg.Levels {
		msg.Levels[i] = math.MinInt16
	}
	msg.Dim, msg.Enc, msg.Wire = 999, Encoding(round%3), WireFloat32
	msg.Norm, msg.Bits = math.NaN(), 7
}

// TestCompressIntoDirtyMessageEqualsFresh is the recycling contract: what
// CompressInto leaves in a message depends on the vector and the
// compressor's state alone. One compressor fills a message that is dirtied
// between rounds, its seeded twin builds a fresh one each round, and the two
// must agree on every field, the priced size, the decoded vector and the
// error-feedback residual carried to the next round.
func TestCompressIntoDirtyMessageEqualsFresh(t *testing.T) {
	for _, spec := range contractSpecs() {
		for _, dim := range contractDims {
			into, fresh := mustNew(t, spec, 5), mustNew(t, spec, 5)
			msg := new(Message)
			decInto, decFresh := make([]float64, dim), make([]float64, dim)
			for round := 0; round < 6; round++ {
				vec := testVec(dim, uint64(1000*dim+round))
				if round == 4 {
					clear(vec) // QSGD's zero-norm branch must clear stale levels
				}
				dirty(t, msg, round, dim)
				into.CompressInto(vec, msg)
				want, err := fresh.Compress(vec)
				if err != nil {
					t.Fatal(err)
				}
				if !identicalMessages(*msg, want) {
					t.Fatalf("%s dim=%d round %d: recycled message differs from a fresh one", spec, dim, round)
				}
				if msg.Bytes() != want.Bytes() {
					t.Fatalf("%s dim=%d round %d: %d bytes, fresh %d", spec, dim, round, msg.Bytes(), want.Bytes())
				}
				if err := Decode(*msg, decInto); err != nil {
					t.Fatal(err)
				}
				if err := Decode(want, decFresh); err != nil {
					t.Fatal(err)
				}
				if !sameBits(decInto, decFresh) {
					t.Fatalf("%s dim=%d round %d: decoded vectors differ", spec, dim, round)
				}
				if !sameBits(into.resid, fresh.resid) {
					t.Fatalf("%s dim=%d round %d: error-feedback residuals differ", spec, dim, round)
				}
			}
		}
	}
}

// TestMessagesAliasNothing: a filled message shares memory with neither the
// vector, nor the compressor, nor another message the same compressor
// filled.
func TestMessagesAliasNothing(t *testing.T) {
	const dim = 650
	clone := func(m Message) Message {
		m.Dense = slices.Clone(m.Dense)
		m.Indices = slices.Clone(m.Indices)
		m.Values = slices.Clone(m.Values)
		m.Levels = slices.Clone(m.Levels)
		return m
	}
	for _, spec := range contractSpecs() {
		c := mustNew(t, spec, 5)
		vecA, vecB := testVec(dim, 1), testVec(dim, 2)
		a, b := new(Message), new(Message)
		c.CompressInto(vecA, a)
		wantA := clone(*a)
		c.CompressInto(vecB, b)
		wantB := clone(*b)
		if !identicalMessages(*a, wantA) {
			t.Fatalf("%s: a second CompressInto changed the first message", spec)
		}
		for i := range vecA {
			vecA[i], vecB[i] = math.Inf(1), math.Inf(-1)
		}
		if !identicalMessages(*a, wantA) || !identicalMessages(*b, wantB) {
			t.Fatalf("%s: mutating the vector changed a message", spec)
		}
		// Scribbling over one message must reach neither the other nor the
		// compressor: a twin that never saw the scribble agrees on what
		// comes next.
		twin := mustNew(t, spec, 5)
		for _, v := range [][]float64{testVec(dim, 1), testVec(dim, 2)} {
			if _, err := twin.Compress(v); err != nil {
				t.Fatal(err)
			}
		}
		for i := range a.Dense {
			a.Dense[i] = -1
		}
		for i := range a.Values {
			a.Values[i], a.Indices[i] = -1, 0
		}
		for i := range a.Levels {
			a.Levels[i] = -1
		}
		if !identicalMessages(*b, wantB) {
			t.Fatalf("%s: two messages from one compressor share storage", spec)
		}
		vecC := testVec(dim, 3)
		got, err := c.Compress(vecC)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := twin.Compress(vecC)
		if !identicalMessages(got, want) {
			t.Fatalf("%s: the compressor kept a reference into a message it filled", spec)
		}
	}
}

// TestCompressIntoSteadyStateAllocFree: CompressInto into a message that has
// been round once allocates nothing, on every spec and size. (The fresh
// path's exact count is TestTopKCompressAllocs.)
func TestCompressIntoSteadyStateAllocFree(t *testing.T) {
	for _, spec := range contractSpecs() {
		for _, dim := range contractDims[1:] {
			c := mustNew(t, spec, 5)
			vec := testVec(dim, 9)
			msg := new(Message)
			c.CompressInto(vec, msg) // sizes scratch and message
			if n := testing.AllocsPerRun(20, func() { c.CompressInto(vec, msg) }); n != 0 {
				t.Errorf("%s dim=%d: %v allocs per steady-state CompressInto, want 0", spec, dim, n)
			}
		}
	}
}

// specialValues are the inputs a wire must carry without a special case:
// both zeros, subnormals, the extremes, both infinities and NaN.
var specialValues = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1p-1030, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// specialVec is a normal vector with special values planted: round r puts
// specialValues[r] first, then one of them at every seventh coordinate.
func specialVec(dim int, round int) []float64 {
	v := testVec(dim, uint64(31*dim+round))
	for i := 0; i < dim; i += 7 {
		v[i] = specialValues[(round+i/7)%len(specialValues)]
	}
	return v
}

// TestDecodeMatchesAddDecodedIntoZeros is the decode differential and the
// byte-accounting check over every spec form, on inputs with ±0, subnormals,
// ±Inf and NaN: Decode(msg) must equal AddDecoded(msg, zeros) value for
// value (NaN matching NaN), and msg.Bytes() must be spec.WireBytes(dim) —
// the parameter server prices every push from WireBytes before any gradient
// exists. The one difference the add may introduce is the sign of a zero:
// +0 + -0 is +0, so a -0 Decode writes can come back +0.
func TestDecodeMatchesAddDecodedIntoZeros(t *testing.T) {
	for _, str := range contractSpecs() {
		spec, err := ParseSpec(str)
		if err != nil {
			t.Fatal(err)
		}
		for _, dim := range []int{1, 7, 650, 16400} {
			c := mustNew(t, str, 5)
			dec, add := make([]float64, dim), make([]float64, dim)
			msg := new(Message)
			for round := 0; round < len(specialValues)+1; round++ {
				vec := testVec(dim, uint64(dim+round))
				if round > 0 {
					vec = specialVec(dim, round-1)
				}
				c.CompressInto(vec, msg)
				if got, want := msg.Bytes(), spec.WireBytes(dim); got != want {
					t.Fatalf("%s dim=%d round %d: message is %d bytes, WireBytes says %d", str, dim, round, got, want)
				}
				if err := Decode(*msg, dec); err != nil {
					t.Fatal(err)
				}
				clear(add)
				if err := AddDecoded(*msg, add); err != nil {
					t.Fatal(err)
				}
				for i := range dec {
					d, a := dec[i], add[i]
					same := math.Float64bits(d) == math.Float64bits(a) ||
						(math.IsNaN(d) && math.IsNaN(a)) ||
						(d == 0 && a == 0 && !math.Signbit(a))
					if !same {
						t.Fatalf("%s dim=%d round %d coord %d: Decode %v, AddDecoded into zeros %v", str, dim, round, i, d, a)
					}
				}
			}
		}
	}
}

// TestAddDecodedIsDecodePlusDst is the decode differential: for every spec —
// none and every scheme of contractSpecs, with and without error feedback, on
// both wire widths — at dims 1-9, 650 and 16 400, AddDecoded(msg, dst) must
// leave dst holding dst[i] + Decode(msg)[i] bit for bit, into zeros and into
// a finite vector without -0 (a sparse message leaves a -0 it does not
// touch, where adding Decode's 0 makes it +0). The dense path is
// tensor.Axpy(1, ...), the quantized one tensor.AccumulateLevels.
func TestAddDecodedIsDecodePlusDst(t *testing.T) {
	dims := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 650, 16400}
	for _, str := range append([]string{"none", "none+f32"}, contractSpecs()...) {
		spec, err := ParseSpec(str)
		if err != nil {
			t.Fatal(err)
		}
		for _, dim := range dims {
			c := spec.NewWire(func() *rng.Rand { return rng.New(uint64(dim)) }, new(Selection))
			dec, got, want := make([]float64, dim), make([]float64, dim), make([]float64, dim)
			msg := new(Message)
			rounds := len(specialValues) + 1
			if dim > 77 {
				rounds = 3 // every round already plants every special value
			}
			for round := 0; round < rounds; round++ {
				vec := testVec(dim, uint64(dim+round))
				if round > 0 {
					vec = specialVec(dim, round-1)
				}
				c.CompressInto(vec, msg)
				if err := Decode(*msg, dec); err != nil {
					t.Fatal(err)
				}
				for _, zero := range []bool{true, false} {
					if zero {
						clear(got)
					} else {
						copy(got, testVec(dim, uint64(7*dim+round)))
					}
					for i := range want {
						want[i] = got[i] + dec[i]
					}
					if err := AddDecoded(*msg, got); err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s dim=%d round %d zero dst %v: coord %d = %x, dst + Decode %x",
								str, dim, round, zero, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}
