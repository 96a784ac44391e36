package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The oracles are the scalar passes the vector kernels replace, one op
// per pass: refPost (gemm_epilogue_test.go) holds nn's folded BatchNorm
// loop, the residual add (Tensor.Add) and nn's bit-pattern ReLU, and
// refMaxPool nn's K×K max-pool loop.

// refPostInto is refPost over a run of floats, with one choice made:
// where both addends of the skip are NaN the running value's is the
// sum's. Compiled Go adds them in either order (-race flips it), so
// refPost leaves that open; RowPost fixes it.
func refPostInto(dst, src []float32, p RowPost) {
	for j, v := range src {
		v = refPost(v, p.Affine, p.Scale, p.Shift, nil, false)
		if p.Skip != nil {
			skip := p.Skip[j]
			if v != v {
				skip = 0
			}
			v = refPost(v, false, 0, 0, &skip, false)
		}
		dst[j] = refPost(v, false, 0, 0, nil, p.ReLU)
	}
}

// refMaxPool is the inference max-pool of one plane with window k and
// stride s: each output row the running max of k·k strided passes.
func refMaxPool(dst, src []float32, w, ow, k, s int) {
	for oy := 0; oy*ow < len(dst); oy++ {
		d := dst[oy*ow:][:ow]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := src[(oy*s+ky)*w+kx:]
				if ky == 0 && kx == 0 {
					for ox := range d {
						d[ox] = row[ox*s]
					}
					continue
				}
				for ox := range d {
					d[ox] = max(d[ox], row[ox*s])
				}
			}
		}
	}
}

// edgeValues are the values the kernels must treat as the scalar code
// does: NaNs with distinct payloads (quiet and signalling, both signs),
// signed zeros, infinities, subnormals and the extremes.
var edgeValues = []float32{
	math.Float32frombits(0x7FC00001), math.Float32frombits(0x7FC12345),
	math.Float32frombits(0xFFC00F00), math.Float32frombits(0x7F800001),
	math.Float32frombits(0x7FA5A5A5), math.Float32frombits(0xFF812340),
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	1e-45, -1e-45, math.MaxFloat32, -math.MaxFloat32,
}

// edgySlice is n floats, each a special with probability pSpecial and
// uniform in [-2, 2) otherwise.
func edgySlice(rng *rand.Rand, n int, pSpecial float64) []float32 {
	s := make([]float32, n)
	for i := range s {
		if rng.Float64() < pSpecial {
			s[i] = edgeValues[rng.Intn(len(edgeValues))]
		} else {
			s[i] = rng.Float32()*4 - 2
		}
	}
	return s
}

// prefilled is n floats of 42, the value a kernel never writes.
func prefilled(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = 42
	}
	return s
}

// sameBits reports the first index where got and want differ in their
// bits, or -1.
func sameBits(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestMaxPool2x2Parity holds MaxPool2x2Into on every tier to the K×K
// loop with K = S = 2, bit for bit: NaN payloads in every window
// position, ±0 in both orders, ±Inf, odd heights and widths (the last
// row and column dropped), planes from 1×1 to wider than a vector with
// every tail length, and nothing written past the output.
func TestMaxPool2x2Parity(t *testing.T) {
	type shape struct{ planes, h, w int }
	var shapes []shape
	for w := 1; w <= 70; w++ {
		shapes = append(shapes, shape{1, 1 + w%5, w})
	}
	for _, hw := range [][2]int{{1, 1}, {2, 2}, {8, 8}, {3, 3}, {4, 4}, {7, 9}, {9, 7}, {33, 65}, {112, 112}} {
		shapes = append(shapes, shape{3, hw[0], hw[1]})
	}
	shapes = append(shapes, shape{64, 2, 2}, shape{64, 8, 8}, shape{17, 5, 33})

	// Every ordered pair and quadruple of ±0 and of two NaN payloads
	// beside finite values, each window on its own.
	zeroNaN := []float32{0, float32(math.Copysign(0, -1)), edgeValues[0], edgeValues[2], 1, -1}
	var windows []float32
	for _, a := range zeroNaN {
		for _, b := range zeroNaN {
			for _, c := range zeroNaN {
				for _, d := range zeroNaN {
					windows = append(windows, a, b, c, d)
				}
			}
		}
	}
	nw := len(windows) / 4

	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, sh := range shapes {
			for _, p := range []float64{0, 0.3, 0.9} {
				src := edgySlice(rng, sh.planes*sh.h*sh.w, p)
				checkPool(t, src, sh.planes, sh.h, sh.w)
			}
		}
		// The windows as one plane of nw 2×2 windows side by side.
		src := make([]float32, 4*nw)
		for i := 0; i < nw; i++ {
			src[2*i], src[2*i+1] = windows[4*i], windows[4*i+1]
			src[2*nw+2*i], src[2*nw+2*i+1] = windows[4*i+2], windows[4*i+3]
		}
		checkPool(t, src, 1, 2, 2*nw)
	})
}

func checkPool(t *testing.T, src []float32, planes, h, w int) {
	t.Helper()
	oh, ow := h/2, w/2
	n := planes * oh * ow
	want := prefilled(n + 17)
	for i := 0; i < planes && n > 0; i++ {
		refMaxPool(want[i*oh*ow:][:oh*ow], src[i*h*w:][:h*w], w, ow, 2, 2)
	}
	got := prefilled(n + 17)
	MaxPool2x2Into(got, src, planes, h, w)
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("%d planes %d×%d: output %d is %#x, want %#x", planes, h, w, i,
			math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
}

// TestRowPostParity holds RowPost.Into on every tier to the separate
// scalar passes, bit for bit, for every combination of the three ops:
// NaN payloads in the input and the skip (the input's wins), ±0, ±Inf,
// subnormals, lengths 1–70 (every tail) and a whole stem plane, into a
// fresh output prefilled with 42 that must not be written past its
// length, and in place.
func TestRowPostParity(t *testing.T) {
	lengths := []int{56 * 56}
	for n := 1; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, n := range lengths {
			for flags := 0; flags < 8; flags++ {
				src := edgySlice(rng, n, 0.3)
				p := RowPost{Affine: flags&1 != 0, ReLU: flags&4 != 0}
				if p.Affine {
					p.Scale, p.Shift = rng.Float32()*4-2, rng.Float32()*2-1
				}
				if flags&2 != 0 {
					p.Skip = edgySlice(rng, n, 0.3)
				}
				want := prefilled(n + 17)
				refPostInto(want, src, p)

				got := prefilled(n + 17)
				p.Into(got, src)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("n=%d %+v: y[%d] = %#x, want %#x (x %#x)", n, p, i,
						math.Float32bits(got[i]), math.Float32bits(want[i]), math.Float32bits(src[i]))
				}
				p.Into(src, src)
				if i := sameBits(src, want[:n]); i >= 0 {
					t.Fatalf("n=%d %+v in place: y[%d] = %#x, want %#x", n, p, i,
						math.Float32bits(src[i]), math.Float32bits(want[i]))
				}
			}
		}
	})
}
