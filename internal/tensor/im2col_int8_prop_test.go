package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestMinMaxNaNTable pins NaN propagation position by position: the doc
// promises a NaN anywhere poisons both bounds, and ordered comparisons
// are always false against NaN, so only an explicit check catches the
// head/middle/tail cases.
func TestMinMaxNaNTable(t *testing.T) {
	nan := float32(math.NaN())
	cases := []struct {
		name string
		xs   []float32
	}{
		{"head", []float32{nan, 1, 2, 3}},
		{"middle", []float32{1, 2, nan, 3}},
		{"tail", []float32{1, 2, 3, nan}},
		{"only", []float32{nan}},
		{"pair-head", []float32{nan, 7}},
		{"pair-tail", []float32{7, nan}},
		{"all", []float32{nan, nan, nan}},
	}
	for _, tc := range cases {
		mn, mx := MinMax(tc.xs)
		if !math.IsNaN(float64(mn)) || !math.IsNaN(float64(mx)) {
			t.Errorf("%s: MinMax = (%g, %g), want (NaN, NaN)", tc.name, mn, mx)
		}
	}
	// And finite inputs must stay exact.
	if mn, mx := MinMax([]float32{4, -2, 9, 0}); mn != -2 || mx != 9 {
		t.Errorf("finite: MinMax = (%g, %g), want (-2, 9)", mn, mx)
	}
}

// quantTestValues builds inputs that stress every quantizer branch:
// deep negative and positive saturation (including values whose
// unclamped CVTTPS2DQ would overflow int32), both clamp boundaries,
// exact grid points, half-way rounding cases, and a bulk of ordinary
// in-range values.
func quantTestValues(rng *rand.Rand, n int) []float32 {
	special := []float32{
		0, -0.0001, 0.0001, -1e30, 1e30, -3e38, 3e38,
		255, 255.0001, 254.9999, -255, 2.55e10,
		0.005, -0.005, 0.0049999, 1.275, 12.75,
	}
	xs := make([]float32, n)
	for i := range xs {
		if i < len(special) {
			xs[i] = special[i]
		} else {
			xs[i] = rng.Float32()*600 - 300
		}
	}
	rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// TestQuantizeAffineSliceParity pins the vector quantizer bit-exact
// against the scalar QuantizeAffine oracle on every reachable kernel
// tier, across lengths that hit the 16/32-wide bodies and every tail
// residue, and across affine parameters including saturating scales.
func TestQuantizeAffineSliceParity(t *testing.T) {
	detected := DetectedKernelTier()
	defer SetKernelTier(detected)
	rng := rand.New(rand.NewSource(31))
	affines := []struct {
		invScale float32
		zp       uint8
	}{
		{50, 100}, {1.0 / 0.02, 0}, {255, 255}, {0.004, 128}, {1e9, 7}, {1, 128},
	}
	for _, tier := range reachableTiers() {
		if err := SetKernelTier(tier); err != nil {
			t.Fatalf("SetKernelTier(%v): %v", tier, err)
		}
		for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 100, 257, 1024} {
			xs := quantTestValues(rng, n)
			for _, af := range affines {
				got := make([]uint8, n)
				QuantizeAffineSlice(got, xs, af.invScale, af.zp)
				for i, x := range xs {
					want := QuantizeAffine(x, af.invScale, float32(af.zp))
					if got[i] != want {
						t.Fatalf("tier %v n=%d invScale=%g zp=%d: [%d] x=%g got %d want %d",
							tier, n, af.invScale, af.zp, i, x, got[i], want)
					}
				}
			}
		}
	}
}

// randGeom draws a convolution geometry with kernel, stride, and padding
// in the ranges the model zoo uses (plus edge-heavy degenerate combos).
func randGeom(rng *rand.Rand) ConvGeom {
	return ConvGeom{
		KH: 1 + rng.Intn(5), KW: 1 + rng.Intn(5),
		StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
		PadH: rng.Intn(3), PadW: rng.Intn(3),
	}
}

// TestIm2ColQuantSliceMatchesRef is the fused-packer property test: the
// run-copy + SIMD-quantize pipeline must reproduce the retained
// per-element reference bit-exactly across random shapes, strides, and
// padding, on every reachable kernel tier.
func TestIm2ColQuantSliceMatchesRef(t *testing.T) {
	detected := DetectedKernelTier()
	defer SetKernelTier(detected)
	rng := rand.New(rand.NewSource(37))
	for _, tier := range reachableTiers() {
		if err := SetKernelTier(tier); err != nil {
			t.Fatalf("SetKernelTier(%v): %v", tier, err)
		}
		for trial := 0; trial < 40; trial++ {
			g := randGeom(rng)
			c := 1 + rng.Intn(5)
			h := g.KH + rng.Intn(12)
			w := g.KW + rng.Intn(12)
			oh, ow := g.OutSize(h, w)
			if oh <= 0 || ow <= 0 {
				continue
			}
			src := make([]float32, c*h*w)
			for i := range src {
				src[i] = rng.Float32()*8 - 4
			}
			invScale := float32(1+rng.Intn(100)) / 2
			zp := uint8(rng.Intn(256))
			k := c * g.KH * g.KW
			kp := Int8KP(k)
			got := make([]uint8, oh*ow*kp)
			want := make([]uint8, oh*ow*kp)
			for i := range got {
				got[i] = 0xAB // stale bytes must be fully overwritten
				want[i] = 0xCD
			}
			Im2ColQuantSlice(got, src, c, h, w, g, invScale, zp, kp)
			RefIm2ColQuantSlice(want, src, c, h, w, g, invScale, zp, kp)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("tier %v geom %+v c=%d h=%d w=%d zp=%d: dst[%d] = %d, want %d",
						tier, g, c, h, w, zp, i, got[i], want[i])
				}
			}
		}
	}
}

// TestIm2ColU8SliceMatchesRef pins the levels-native run-copy gather
// against its per-element reference across random shapes, strides,
// padding, and pad levels — including kernels wider than the 8-byte
// word-move fast path.
func TestIm2ColU8SliceMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 80; trial++ {
		g := randGeom(rng)
		if trial%7 == 0 {
			g.KW = 9 + rng.Intn(4) // force the copy path past the word move
		}
		c := 1 + rng.Intn(5)
		h := g.KH + rng.Intn(12)
		w := g.KW + rng.Intn(12)
		oh, ow := g.OutSize(h, w)
		if oh <= 0 || ow <= 0 {
			continue
		}
		src := make([]uint8, c*h*w)
		rng.Read(src)
		pad := uint8(rng.Intn(256))
		k := c * g.KH * g.KW
		kp := Int8KP(k)
		got := make([]uint8, oh*ow*kp)
		want := make([]uint8, oh*ow*kp)
		for i := range got {
			got[i] = 0xAB
			want[i] = 0xCD
		}
		Im2ColU8Slice(got, src, c, h, w, g, pad, kp)
		RefIm2ColU8Slice(want, src, c, h, w, g, pad, kp)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("geom %+v c=%d h=%d w=%d pad=%d: dst[%d] = %d, want %d",
					g, c, h, w, pad, i, got[i], want[i])
			}
		}
	}
}

// TestInt8KernelVNNIParity exercises both AVX-512 int8 kernels on VNNI
// hosts: with the fast path forced off the widen+VPMADDWD kernel must
// produce the same exact accumulations as with VPDPBUSD on.
func TestInt8KernelVNNIParity(t *testing.T) {
	if DetectedKernelTier() < TierAVX512 {
		t.Skip("host has no AVX-512 tier")
	}
	prev := setVNNI(true)
	defer setVNNI(prev)
	if !prev {
		t.Skip("host has no VNNI")
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		kp := int8KStep * (1 + rng.Intn(40))
		a0 := randInt8(rng, kp)
		a1 := randInt8(rng, kp)
		b0 := randUint8(rng, kp)
		b1 := randUint8(rng, kp)
		b2 := randUint8(rng, kp)
		b3 := randUint8(rng, kp)
		var withVNNI, without, want [8]int32
		setVNNI(true)
		int8Dot2x4(&withVNNI, a0, a1, b0, b1, b2, b3, kp)
		setVNNI(false)
		int8Dot2x4(&without, a0, a1, b0, b1, b2, b3, kp)
		setVNNI(true)
		int8Dot2x4Generic(&want, a0, a1, b0, b1, b2, b3, kp)
		if withVNNI != want || without != want {
			t.Fatalf("kp=%d: vnni %v, widen %v, want %v", kp, withVNNI, without, want)
		}
	}
}
