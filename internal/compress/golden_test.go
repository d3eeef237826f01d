package compress

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The wire every scheme and wrapper produces, pinned directly: an FNV-1a hash
// of every field of three successive CompressInto calls into one recycled
// Message, and of each message's Bytes(), per spec. The second round's input
// has NaN, ±Inf and -0 planted (so the error-feedback residual carries them
// into the third), and the ratio and bit-width are retuned between the
// second and third rounds. Captured before the compressor stack became one
// concrete type; a change that moves a hash changed what goes on the wire.

func fnvWord(h *uint64, w uint64) {
	for i := 0; i < 8; i++ {
		*h ^= (w >> (8 * i)) & 0xff
		*h *= 1099511628211
	}
}

func fnvMessage(h *uint64, m *Message) {
	fnvWord(h, uint64(m.Dim))
	fnvWord(h, uint64(m.Enc))
	fnvWord(h, uint64(m.Wire))
	fnvWord(h, uint64(len(m.Dense)))
	for _, v := range m.Dense {
		fnvWord(h, math.Float64bits(v))
	}
	fnvWord(h, uint64(len(m.Indices)))
	for _, ix := range m.Indices {
		fnvWord(h, uint64(ix))
	}
	fnvWord(h, uint64(len(m.Values)))
	for _, v := range m.Values {
		fnvWord(h, math.Float64bits(v))
	}
	fnvWord(h, math.Float64bits(m.Norm))
	fnvWord(h, uint64(m.Bits))
	fnvWord(h, uint64(len(m.Levels)))
	for _, l := range m.Levels {
		fnvWord(h, uint64(l))
	}
	fnvWord(h, uint64(m.Bytes()))
}

// goldenVec is round's input: a normal vector, the second round's with
// NaN, +Inf, -Inf and -0 planted.
func goldenVec(dim, round int) []float64 {
	v := testVec(dim, uint64(40+round))
	if round == 1 {
		v[3], v[10], v[50], v[77] = math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)
	}
	return v
}

func TestCompressorGolden(t *testing.T) {
	const dim = 103
	for _, c := range []struct {
		spec string
		hash uint64
	}{
		{"none", 0x7d3f007c7f23671a},
		{"none+f32", 0xd28d26888d25b226},
		{"identity", 0x7d3f007c7f23671a},
		{"topk:0.25", 0x221bfeb5d10a44b5},
		{"topk:0.25+ef", 0xa2eb94550394ee0},
		{"topk:0.25+f32", 0x66eef5a2b1e430ed},
		{"topk:0.25+ef+f32", 0xcaef24297a74692e},
		{"randk:0.5", 0xe0f20254de40bf3d},
		{"randk:0.5+ef", 0x101ba21c036348bc},
		{"randk:0.5+f32", 0xb72bbdf5c63b87f4},
		{"randk:0.5+ef+f32", 0x96bb47b0177de68d},
		{"qsgd:4", 0xabbf8a5ebba75ff0},
		{"qsgd:4+ef", 0x119162bd32be55c0},
		{"qsgd:4+f32", 0xeb41a8967197d591},
		{"qsgd:4+ef+f32", 0x2e08421f69410084},
	} {
		s, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := s.New(rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		h := uint64(14695981039346656037)
		var msg Message
		for round := 0; round < 3; round++ {
			if round == 2 {
				comp.SetRatio(0.1)
				comp.SetBits(6)
			}
			comp.CompressInto(goldenVec(dim, round), &msg)
			fnvMessage(&h, &msg)
		}
		if h != c.hash {
			t.Errorf("%s: hash %#x, want %#x", c.spec, h, c.hash)
		}
	}
}
