package compress

import "fmt"

// WireFormat selects the precision of VALUES on the wire. Model state is
// always float64; WireFloat32 makes the encode step a lossy boundary that
// rounds every transmitted value through float32 (round-to-nearest-even,
// relative error <= 2^-24 per finite value) and halves its payload
// accounting. Structural fields — sparse indices, quantization levels — are
// exact under either format; only dense payloads, sparse values, and the
// QSGD norm narrow.
type WireFormat int

const (
	// WireFloat64 is the full-precision default: the wire carries exactly
	// what the compressor produced.
	WireFloat64 WireFormat = iota
	// WireFloat32 rounds every transmitted value through float32 and
	// accounts 4 bytes per value instead of 8.
	WireFloat32
)

// String renders the flag syntax accepted by ParseWire.
func (w WireFormat) String() string {
	switch w {
	case WireFloat64:
		return "float64"
	case WireFloat32:
		return "float32"
	}
	return fmt.Sprintf("wire(%d)", int(w))
}

// valueBytes is the per-value payload accounting.
func (w WireFormat) valueBytes() int {
	if w == WireFloat32 {
		return 4
	}
	return 8
}

// ParseWire parses a wire-format flag value: "float64"/"f64" (or empty) and
// "float32"/"f32".
func ParseWire(str string) (WireFormat, error) {
	switch str {
	case "", "float64", "f64":
		return WireFloat64, nil
	case "float32", "f32":
		return WireFloat32, nil
	}
	return WireFloat64, fmt.Errorf("compress: unknown wire format %q (want float64 or float32)", str)
}

// Narrow32 rounds v through float32 precision — the value a float32 wire
// delivers to the receiver.
func Narrow32(v float64) float64 { return float64(float32(v)) }

// wireNarrow wraps a Compressor so its messages carry float32-rounded values
// and 4-byte-per-value accounting. Decode needs no inverse: the
// narrowed float64 values decode exactly. Like ErrorFeedback, it passes
// Adaptive through to the inner compressor; wrap order in Spec.New puts
// ErrorFeedback outermost so the residual also captures narrowing loss.
type wireNarrow struct {
	inner Compressor
}

// Name implements Compressor.
func (w wireNarrow) Name() string { return w.inner.Name() + "+f32" }

// Compress implements Compressor.
func (w wireNarrow) Compress(vec []float64) (msg Message, err error) {
	err = w.CompressInto(vec, &msg)
	return msg, err
}

// CompressInto has the inner compressor fill msg and narrows the values in
// place: msg's arrays are the caller's, aliasing neither vec nor any
// compressor's scratch, so the rounding touches only the payload just
// written.
func (w wireNarrow) CompressInto(vec []float64, msg *Message) error {
	if err := w.inner.CompressInto(vec, msg); err != nil {
		return err
	}
	msg.Wire = WireFloat32
	for i, v := range msg.Dense {
		msg.Dense[i] = Narrow32(v)
	}
	for i, v := range msg.Values {
		msg.Values[i] = Narrow32(v)
	}
	msg.Norm = Narrow32(msg.Norm)
	return nil
}

// SetRatio implements Adaptive when the inner compressor does.
func (w wireNarrow) SetRatio(r float64) {
	if a, ok := w.inner.(Adaptive); ok {
		a.SetRatio(r)
	}
}

// Ratio implements Adaptive when the inner compressor does (1 otherwise).
func (w wireNarrow) Ratio() float64 {
	if a, ok := w.inner.(Adaptive); ok {
		return a.Ratio()
	}
	return 1
}

// SetBits implements BitSetter when the inner compressor does.
func (w wireNarrow) SetBits(b int) {
	if s, ok := w.inner.(BitSetter); ok {
		s.SetBits(b)
	}
}

// Bits implements BitSetter when the inner compressor does (0 otherwise).
func (w wireNarrow) Bits() int {
	if s, ok := w.inner.(BitSetter); ok {
		return s.Bits()
	}
	return 0
}
