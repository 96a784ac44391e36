package tensor

import (
	"math"
	"testing"
)

// FuzzInt8PackRequant fuzzes the int8 pack → GEMM → requantize round
// trip: arbitrary bytes become activation levels and weight codes, the
// engine's requantized output must match a float64 evaluation of the
// dequantized operands (the int32 stage is exact, so only f32
// requantization rounding may separate them), and the affine
// quantize/dequantize round trip must stay within the analytic bound.
func FuzzInt8PackRequant(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 130, 9, 200}, float32(0.05), uint8(128))
	f.Add([]byte{255, 255, 0, 0, 7, 7, 7, 7}, float32(2), uint8(0))
	f.Add(make([]byte, 64), float32(1e-4), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, scale float32, zp uint8) {
		if !(scale > 1e-6) || !(scale < 1e6) || len(data) < 4 {
			t.Skip()
		}
		if len(data) > 2048 {
			data = data[:2048]
		}
		// Affine round trip: dequantized levels must re-quantize to the
		// same level, and a fresh float must survive within one step.
		invScale := 1 / scale
		for _, q := range data[:min(len(data), 64)] {
			x := scale * float32(int32(q)-int32(zp))
			if !isFinite(x) {
				continue
			}
			back := QuantizeAffine(x, invScale, float32(zp))
			if d := int(back) - int(q); d < -1 || d > 1 {
				t.Fatalf("level %d dequant %g requant %d: drift beyond one level", q, x, back)
			}
		}
		// Pack a 2×n×kp product from the fuzz bytes.
		kp := int8KStep
		n := len(data) / kp
		if n == 0 {
			kp = int8KStep
			n = 1
		}
		if n > 8 {
			n = 8
		}
		const m = 2
		a := make([]int8, m*kp)
		b := make([]uint8, n*kp)
		for i := range a {
			a[i] = int8(data[i%len(data)])
		}
		for i := range b {
			b[i] = data[(i*7+3)%len(data)]
		}
		rowSum := make([]int32, m)
		for i := range rowSum {
			for k := 0; k < kp; k++ {
				rowSum[i] += int32(a[i*kp+k])
			}
		}
		y := make([]float32, m*n)
		GemmInt8RequantInto(y, n, a, b, m, n, kp,
			Int8Requant{WScale: []float32{1, 1}, RowSum: rowSum, XScale: scale, XZero: int32(zp)})
		// Exactness vs float64.
		for i := 0; i < m; i++ {
			out := y[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				var want float64
				for k := 0; k < kp; k++ {
					want += float64(a[i*kp+k]) * (float64(b[j*kp+k]) - float64(zp))
				}
				want *= float64(scale)
				got := float64(out[j])
				tol := math.Max(1e-3, math.Abs(want)*1e-5)
				if math.Abs(got-want) > tol {
					t.Fatalf("requant[%d][%d] = %g, want %g", i, j, got, want)
				}
			}
		}
	})
}

func isFinite(x float32) bool {
	return !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0)
}
