package compress

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Kind enumerates the shipped compression schemes. The zero value None means
// "no compressor": the wire carries the uncompressed vector, and consumers
// ship it through the zero Compressor (NewWire), the identity, which
// reproduces it bit for bit. The engines keep two uncompressed paths that
// are not the identity wire, because their arithmetic or pricing differs
// and goldens pin it: the cluster's full-averaging mean of raw vectors, and
// the parameter server's free, unpriced model pull.
type Kind int

const (
	// None ships vectors uncompressed.
	None Kind = iota
	// KindIdentity is the lossless dense encoding.
	KindIdentity
	// KindTopK keeps the largest-magnitude coordinates.
	KindTopK
	// KindRandK keeps a uniformly random subset, unbiasedly rescaled.
	KindRandK
	// KindQSGD stochastically quantizes to b bits per coordinate.
	KindQSGD
)

// Spec is a value-type description of a compressor, suitable for embedding
// in configuration structs and parsing from command-line flags. The zero
// value is None.
type Spec struct {
	Kind          Kind
	Ratio         float64    // keep-fraction for TopK/RandK, in (0, 1]
	Bits          int        // bit-width for QSGD, in [1, 8]
	ErrorFeedback bool       // residual accumulation, outside the wire narrowing
	Wire          WireFormat // value precision on the wire; zero = float64
}

// Enabled reports whether the spec changes what goes on the wire: a named
// compressor, or a float32 wire on an otherwise-uncompressed payload (the
// kind-None float32 spec routes through the compressed machinery with an
// identity base so every consumer narrows the same way).
func (s Spec) Enabled() bool { return s.Kind != None || s.Wire == WireFloat32 }

// Lossless reports whether encode(decode(v)) == v bitwise for every vector —
// a dense encoding at full wire precision. CHOCO gossip uses it to pin
// estimates exactly to the parameters they mirror.
func (s Spec) Lossless() bool {
	return (s.Kind == None || s.Kind == KindIdentity) && s.Wire == WireFloat64
}

// Validate checks the parameters for the chosen kind.
func (s Spec) Validate() error {
	if s.Wire != WireFloat64 && s.Wire != WireFloat32 {
		return fmt.Errorf("compress: unknown wire format %d", int(s.Wire))
	}
	switch s.Kind {
	case None, KindIdentity:
		return nil
	case KindTopK, KindRandK:
		// Negated: NaN fails every comparison, and a NaN ratio used to pass
		// here and run as top-1.
		if !(s.Ratio > 0 && s.Ratio <= 1) {
			return fmt.Errorf("compress: ratio %g out of (0,1]", s.Ratio)
		}
		return nil
	case KindQSGD:
		if s.Bits < 1 || s.Bits > 8 {
			return fmt.Errorf("compress: qsgd bits %d out of [1,8]", s.Bits)
		}
		return nil
	}
	return fmt.Errorf("compress: unknown kind %d", int(s.Kind))
}

// String renders the spec in the flag syntax accepted by ParseSpec.
func (s Spec) String() string {
	var base string
	switch s.Kind {
	case None:
		base = "none"
	case KindIdentity:
		base = "identity"
	case KindTopK:
		base = fmt.Sprintf("topk:%g", s.Ratio)
	case KindRandK:
		base = fmt.Sprintf("randk:%g", s.Ratio)
	case KindQSGD:
		base = fmt.Sprintf("qsgd:%d", s.Bits)
	default:
		base = fmt.Sprintf("kind(%d)", int(s.Kind))
	}
	if s.ErrorFeedback {
		base += "+ef"
	}
	if s.Wire == WireFloat32 {
		base += "+f32"
	}
	return base
}

// ParseSpec parses the flag syntax: "none", "identity", "topk:0.01",
// "randk:0.05", "qsgd:4", each optionally suffixed with "+ef" for error
// feedback and/or "+f32" for a float32 wire (e.g. "topk:0.01+ef+f32";
// "none+f32" narrows an otherwise-uncompressed payload).
func ParseSpec(str string) (Spec, error) {
	var s Spec
	parts := strings.Split(str, "+")
	for _, mod := range parts[1:] {
		switch mod {
		case "ef":
			s.ErrorFeedback = true
		case "f32":
			s.Wire = WireFloat32
		default:
			return s, fmt.Errorf("compress: unknown modifier %q in %q", mod, str)
		}
	}
	base, arg, hasArg := strings.Cut(parts[0], ":")
	switch base {
	case "none", "":
		if hasArg {
			return s, fmt.Errorf("compress: none takes no argument, got %q", str)
		}
		if s.ErrorFeedback {
			return s, fmt.Errorf("compress: error feedback needs a compressor, got %q", str)
		}
		return Spec{Wire: s.Wire}, nil
	case "identity":
		if hasArg {
			return s, fmt.Errorf("compress: identity takes no argument, got %q", str)
		}
		s.Kind = KindIdentity
	case "topk", "randk":
		if base == "topk" {
			s.Kind = KindTopK
		} else {
			s.Kind = KindRandK
		}
		if !hasArg {
			return s, fmt.Errorf("compress: %s needs a ratio, e.g. %s:0.01", base, base)
		}
		r, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return s, fmt.Errorf("compress: bad ratio in %q: %v", str, err)
		}
		s.Ratio = r
	case "qsgd":
		s.Kind = KindQSGD
		if !hasArg {
			return s, fmt.Errorf("compress: qsgd needs a bit-width, e.g. qsgd:4")
		}
		b, err := strconv.Atoi(arg)
		if err != nil {
			return s, fmt.Errorf("compress: bad bit-width in %q: %v", str, err)
		}
		s.Bits = b
	default:
		return s, fmt.Errorf("compress: unknown compressor %q", base)
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// New builds one compressor. Stochastic kinds (RandK, QSGD) draw from r,
// which must not be shared with other consumers; deterministic kinds ignore
// it. The None spec builds the identity, which a float32 wire narrows like
// any other kind. Top-k selects in a private Selection; an engine builds its
// compressors with NewWire and lends them its own.
func (s Spec) New(r *rng.Rand) (Compressor, error) { return s.build(r, nil) }

// build is New selecting in sel, or in a private Selection when sel is nil.
func (s Spec) build(r *rng.Rand, sel *Selection) (Compressor, error) {
	if err := s.Validate(); err != nil {
		return Compressor{}, err
	}
	switch {
	case s.Kind == KindTopK && sel == nil:
		sel = new(Selection)
	case (s.Kind == KindRandK || s.Kind == KindQSGD) && r == nil:
		base, _, _ := strings.Cut(s.String(), ":")
		return Compressor{}, fmt.Errorf("compress: %s needs a random stream", base)
	}
	return Compressor{
		kind: s.Kind, ratio: s.Ratio, bits: s.Bits, r: r, sel: sel,
		f32: s.Wire == WireFloat32, ef: s.ErrorFeedback,
	}, nil
}

// NewWire builds the compressor one worker ships its messages through: New's,
// on a stream of its own drawn from split and selecting in the holder's sel,
// or the zero Compressor (the identity) for the None spec, which draws no
// stream — so an uncompressed consumer runs the identity wire and keeps every
// RNG stream where it was. Every compressor an engine builds shares the
// engine's one Selection: it compresses one worker at a time. The caller
// validates the spec first; one that fails Validate panics here.
func (s Spec) NewWire(split func() *rng.Rand, sel *Selection) Compressor {
	if !s.Enabled() {
		return Compressor{}
	}
	c, err := s.build(split(), sel)
	if err != nil {
		panic(err)
	}
	return c
}

// InitialRatio returns the keep-ratio the spec starts at, in SetRatio's
// convention: the sparsifier's keep-fraction, the quantizer's bits/8, and 1
// for lossless kinds. It seeds the joint controller's Ratio0 consistently
// with what SetRatio sets on the built compressor.
func (s Spec) InitialRatio() float64 {
	switch s.Kind {
	case KindTopK, KindRandK:
		return s.Ratio
	case KindQSGD:
		return float64(s.Bits) / 8
	}
	return 1
}

// WireBytes returns the (data-independent) payload size of one message for a
// vector of the given dimension — what a scheduler can charge before any
// gradient is materialized. It matches Message.Bytes for every shipped
// compressor.
func (s Spec) WireBytes(dim int) int {
	vb := s.Wire.valueBytes()
	switch s.Kind {
	case None, KindIdentity:
		return vb * dim
	case KindTopK, KindRandK:
		return keepCount(s.Ratio, dim) * (4 + vb)
	case KindQSGD:
		return vb + (dim*(s.Bits+1)+7)/8
	}
	panic(fmt.Sprintf("compress: unknown kind %d", int(s.Kind)))
}
