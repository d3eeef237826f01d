package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// mixTwin holds ChocoMix, on whichever tier runs, to its Go loop over the
// whole row, bit for bit in post and prj, with sentinels past both.
func mixTwin(t *testing.T, x, hat []float64, self int, order []int, ws []float64, gamma float64) {
	t.Helper()
	dim := len(x)
	post, prj := filled(dim+5, valSentinel), filled(dim+5, valSentinel)
	ChocoMix(post[:dim], prj[:dim], x, hat, self, order, ws, gamma)
	wantPost, wantPrj := make([]float64, dim), make([]float64, dim)
	chocoMixGo(wantPost, wantPrj, x, hat, 0, self, order, ws, gamma)
	if i, ok := bitsEqual(post[:dim], wantPost); !ok {
		t.Fatalf("ChocoMix(dim %d, self %d, order %v, ws %v, gamma %v): post[%d] = %#x, Go loop %#x",
			dim, self, order, ws, gamma, i, math.Float64bits(post[i]), math.Float64bits(wantPost[i]))
	}
	if i, ok := bitsEqual(prj[:dim], wantPrj); !ok {
		t.Fatalf("ChocoMix(dim %d, self %d, order %v, ws %v, gamma %v): prj[%d] = %#x, Go loop %#x",
			dim, self, order, ws, gamma, i, math.Float64bits(prj[i]), math.Float64bits(wantPrj[i]))
	}
	intactPast(t, "post", post, dim, valSentinel)
	intactPast(t, "prj", prj, dim, valSentinel)
}

// mixShape picks a row's shape from a seed: nsrc of the nrows = nsrc+2
// rows in shuffled order (so two rows stay unread), the own row anywhere,
// and, when weighted, a finite weight in (0, 1] per source — graph weights
// are never NaN, so a product's operand order never shows.
func mixShape(nsrc int, seed uint32, weighted bool) (nrows, self int, order []int, ws []float64) {
	nrows = nsrc + 2
	r := parityRNG(seed)
	rows := make([]int, nrows)
	for i := range rows {
		rows[i] = i
	}
	for i := nrows - 1; i > 0; i-- {
		k := r.intn(i + 1)
		rows[i], rows[k] = rows[k], rows[i]
	}
	order, self = rows[:nsrc], r.intn(nrows)
	if weighted {
		ws = make([]float64, nsrc)
		for k := range ws {
			ws[k] = float64(1+r.intn(256)) / 256
		}
	}
	return nrows, self, order, ws
}

// plantSpecials overwrites some coordinates of x and every row of hat with
// values whose handling the packed and scalar code could disagree on: NaNs
// of distinct payload, sign and quiet bit in EVERY vector of a coordinate
// (so each add of the sum, and x - gamma*x̂ and both final adds, meets two
// NaNs and the survivor's payload is checked), infinities of both signs
// (+Inf + -Inf makes the default NaN), -0, and NaNs in every other row only.
func plantSpecials(x, hat []float64, pattern uint8) {
	dim := len(x)
	if dim == 0 {
		return
	}
	nrows := len(hat) / dim
	vec := func(r int) []float64 { // r == nrows is x
		if r == nrows {
			return x
		}
		return hat[r*dim : (r+1)*dim]
	}
	for j := 0; j < dim; j++ {
		kind := (j + int(pattern)) % 7
		for r := 0; r <= nrows; r++ {
			v := vec(r)
			nan := math.Float64frombits(0x7FF0000000000000 | uint64(r%2)<<63 | uint64(r/2%2)<<51 |
				uint64(r+1)<<20 | uint64(j+1))
			switch kind {
			case 0:
				v[j] = nan
			case 1:
				v[j] = math.Inf(1 - 2*(r%2))
			case 2:
				v[j] = math.Copysign(0, -1)
			case 3:
				if r%2 == 0 {
					v[j] = nan
				}
			case 4:
				if r%3 == 1 {
					v[j] = math.Inf(1)
				}
			}
		}
	}
}

// TestChocoMixMatchesGoLoop runs mixTwin on both tiers at every length 0-67
// and the served 650 and 16 400, with 1-9 sources, uniform and weighted rows,
// over Gaussian-like values with and without planted specials.
func TestChocoMixMatchesGoLoop(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		r := parityRNG(23)
		dims := []int{650, 16400}
		for d := 0; d <= 67; d++ {
			dims = append(dims, d)
		}
		for _, dim := range dims {
			for nsrc := 1; nsrc <= 9; nsrc++ {
				if dim > 67 && nsrc%2 == 0 {
					continue
				}
				for rep := 0; rep < 4; rep++ {
					nrows, self, order, ws := mixShape(nsrc, uint32(r.intn(1<<30)), rep%2 == 1)
					x, hat := make([]float64, dim), make([]float64, nrows*dim)
					for i := range x {
						x[i] = r.next() * math.Exp(3*r.next())
					}
					for i := range hat {
						hat[i] = r.next() * math.Exp(3*r.next())
					}
					if rep >= 2 {
						plantSpecials(x, hat, uint8(r.intn(256)))
					}
					gamma := float64(1+r.intn(1024)) / 1024
					mixTwin(t, x, hat, self, order, ws, gamma)
				}
			}
		}
	})
}

// TestChocoMixRejectsRowsOutsideHat: the kernel reads rows by raw address,
// so every row index and length is checked before it runs.
func TestChocoMixRejectsRowsOutsideHat(t *testing.T) {
	const dim = 8
	hat, post, prj, x := make([]float64, 3*dim), make([]float64, dim), make([]float64, dim), make([]float64, dim)
	for name, call := range map[string]func(){
		"own row past hat":      func() { ChocoMix(post, prj, x, hat, 3, []int{0}, nil, 1) },
		"negative own row":      func() { ChocoMix(post, prj, x, hat, -1, []int{0}, nil, 1) },
		"source past hat":       func() { ChocoMix(post, prj, x, hat, 0, []int{0, 3}, nil, 1) },
		"source past a partial": func() { ChocoMix(post, prj, x, hat[:3*dim-1], 0, []int{2}, nil, 1) },
		"no source":             func() { ChocoMix(post, prj, x, hat, 0, nil, nil, 1) },
		"a weight short":        func() { ChocoMix(post, prj, x, hat, 0, []int{0, 1}, []float64{1}, 1) },
		"short prj":             func() { ChocoMix(post, prj[:dim-1], x, hat, 0, []int{0}, nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzMixTwin reads raw float64 words into x and the rows, cycling them to
// the fuzzer's length (0-67), plants the specials when asked, and runs
// mixTwin on both tiers over 1-9 sources, uniform or weighted, with gamma in
// (0, 1].
func FuzzMixTwin(f *testing.F) {
	var seed []byte
	for _, v := range topkSpecials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, uint8(37), uint8(4), uint32(7), false, uint16(1023), uint8(0))
	f.Add(seed, uint8(67), uint8(8), uint32(1<<12|3), true, uint16(511), uint8(0))
	f.Add(seed[:40], uint8(16), uint8(0), uint32(0), false, uint16(0), uint8(3))
	f.Add(seed, uint8(21), uint8(2), uint32(99), true, uint16(300), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, dimSeed, srcSeed uint8, shape uint32, weighted bool, gammaSeed uint16, plant uint8) {
		dim, nsrc := int(dimSeed)%68, 1+int(srcSeed)%9
		nrows, self, order, ws := mixShape(nsrc, shape, weighted)
		words := make([]float64, len(raw)/8)
		for i := range words {
			words[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		all := make([]float64, (nrows+1)*dim)
		if len(words) > 0 {
			for i := range all {
				all[i] = words[(i+i/len(words))%len(words)]
			}
		}
		x, hat := all[:dim], all[dim:]
		if plant%2 == 1 {
			plantSpecials(x, hat, plant/2)
		}
		gamma := float64(gammaSeed%1024+1) / 1024
		eachTier(t, func(t *testing.T) { mixTwin(t, x, hat, self, order, ws, gamma) })
	})
}
