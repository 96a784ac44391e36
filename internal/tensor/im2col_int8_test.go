package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestIm2ColQuantSliceMatchesReference checks the fused quantizing
// gather against the composition of the f32 im2col and the scalar
// quantizer, across geometries with and without padding and stride.
func TestIm2ColQuantSliceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	geoms := []ConvGeom{
		{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		{KH: 5, KW: 3, StrideH: 1, StrideW: 2, PadH: 2, PadW: 0},
	}
	const c, h, w = 3, 9, 11
	src := make([]float32, c*h*w)
	for i := range src {
		src[i] = rng.Float32()*4 - 2
	}
	invScale, zp := float32(50), uint8(100)
	for _, g := range geoms {
		oh, ow := g.OutSize(h, w)
		plane := oh * ow
		k := c * g.KH * g.KW
		kp := Int8KP(k)
		ref := make([]float32, k*plane)
		Im2ColSlice(ref, src, c, h, w, g)
		dst := make([]uint8, plane*kp)
		for i := range dst {
			dst[i] = 0xAB // stale contents must be fully overwritten
		}
		Im2ColQuantSlice(dst, src, c, h, w, g, invScale, zp, kp)
		for j := 0; j < plane; j++ {
			for kk := 0; kk < k; kk++ {
				want := QuantizeAffine(ref[kk*plane+j], invScale, float32(zp))
				if got := dst[j*kp+kk]; got != want {
					t.Fatalf("geom %+v dst[%d][%d] = %d, want %d", g, j, kk, got, want)
				}
			}
			for kk := k; kk < kp; kk++ {
				if dst[j*kp+kk] != 0 {
					t.Fatalf("geom %+v: kp tail not zeroed at [%d][%d]", g, j, kk)
				}
			}
		}
	}
}

// TestIm2ColU8SliceMatchesQuantPath: gathering pre-quantized levels must
// equal quantizing during the gather when the source levels came from
// the same affine parameters.
func TestIm2ColU8SliceMatchesQuantPath(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := ConvGeom{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	const c, h, w = 2, 8, 8
	src := make([]float32, c*h*w)
	for i := range src {
		src[i] = rng.Float32()*2 - 1
	}
	invScale, zp := float32(100), uint8(128)
	levels := make([]uint8, len(src))
	QuantizeAffineSlice(levels, src, invScale, zp)

	k := c * g.KH * g.KW
	kp := Int8KP(k)
	oh, ow := g.OutSize(h, w)
	a := make([]uint8, oh*ow*kp)
	b := make([]uint8, oh*ow*kp)
	Im2ColQuantSlice(a, src, c, h, w, g, invScale, zp, kp)
	Im2ColU8Slice(b, levels, c, h, w, g, zp, kp)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mismatch at %d: quant-gather %d vs u8-gather %d", i, a[i], b[i])
		}
	}
}

func TestQuantizeAffineRoundTrip(t *testing.T) {
	scale, zp := float32(0.02), uint8(77)
	lo := float64(scale) * float64(0-int32(zp))
	hi := float64(scale) * float64(255-int32(zp))
	for _, x := range []float32{-2, -1.54, -0.001, 0, 0.0099, 0.01, 0.5, 1.7, 3.56, 100} {
		q := QuantizeAffine(x, 1/scale, float32(zp))
		back := float64(scale) * float64(int32(q)-int32(zp))
		clamped := math.Min(math.Max(float64(x), lo), hi)
		if d := math.Abs(back - clamped); d > float64(scale)*0.51 {
			t.Fatalf("x=%g: round trip %g, clamped %g, |Δ|=%g", x, back, clamped, d)
		}
	}
	// Exact zero must land exactly on the zero point.
	if q := QuantizeAffine(0, 1/scale, float32(zp)); q != zp {
		t.Fatalf("QuantizeAffine(0) = %d, want zp %d", q, zp)
	}
}

func TestMinMax(t *testing.T) {
	mn, mx := MinMax([]float32{3, -1, 2, -7, 5})
	if mn != -7 || mx != 5 {
		t.Fatalf("MinMax = (%g, %g), want (-7, 5)", mn, mx)
	}
	mn, mx = MinMax(nil)
	if mn != 0 || mx != 0 {
		t.Fatalf("MinMax(nil) = (%g, %g), want zeros", mn, mx)
	}
	mn, mx = MinMax([]float32{1, float32(math.NaN()), 2})
	if !math.IsNaN(float64(mn)) || !math.IsNaN(float64(mx)) {
		t.Fatalf("MinMax with NaN = (%g, %g), want NaN propagation", mn, mx)
	}
}
