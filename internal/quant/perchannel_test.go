package quant

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantizePerChannelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	outC, k, kp := 5, 21, 32
	w := make([]float32, outC*k)
	for i := range w {
		w[i] = (rng.Float32()*2 - 1) * float32(math.Pow(10, float64(i%4)-2))
	}
	pc, err := QuantizePerChannel(w, outC, k, kp)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, k)
	codes := make([]int8, kp)
	for oc := 0; oc < outC; oc++ {
		pc.Dequantize(oc, buf)
		maxErr := float64(pc.MaxError(oc))
		var sum int32
		for i := 0; i < k; i++ {
			if d := math.Abs(float64(buf[i] - w[oc*k+i])); d > maxErr*1.0001 {
				t.Fatalf("channel %d weight %d: |Δ|=%g > half-scale %g", oc, i, d, maxErr)
			}
		}
		pc.Data.Row(oc, codes)
		for i, q := range codes {
			if i >= k && q != 0 {
				t.Fatalf("channel %d: pad position %d not zero", oc, i)
			}
			sum += int32(q)
		}
		if sum != pc.RowSum[oc] {
			t.Fatalf("channel %d: RowSum %d, recomputed %d", oc, pc.RowSum[oc], sum)
		}
	}
}

// TestQuantizePerChannelIndependentScales: a channel with tiny weights
// must not inherit the coarse scale of a channel with huge weights —
// that is the whole point of per-channel quantization.
func TestQuantizePerChannelIndependentScales(t *testing.T) {
	w := []float32{
		1000, -500, 250, 0,
		0.001, -0.0005, 0.00025, 0,
	}
	pc, err := QuantizePerChannel(w, 2, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Scales[0] <= pc.Scales[1]*1e5 {
		t.Fatalf("scales not independent: %g vs %g", pc.Scales[0], pc.Scales[1])
	}
	buf := make([]float32, 4)
	pc.Dequantize(1, buf)
	if d := math.Abs(float64(buf[0] - 0.001)); d > float64(pc.MaxError(1)) {
		t.Fatalf("small channel lost precision: %g vs 0.001", buf[0])
	}
}

func TestQuantizePerChannelZeroRow(t *testing.T) {
	pc, err := QuantizePerChannel(make([]float32, 8), 2, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	for oc := 0; oc < 2; oc++ {
		if pc.Scales[oc] != 1 || pc.RowSum[oc] != 0 {
			t.Fatalf("zero row: scale %g rowsum %d", pc.Scales[oc], pc.RowSum[oc])
		}
	}
}

func TestQuantizePerChannelRejectsNonFinite(t *testing.T) {
	cases := [][]float32{
		{1, float32(math.Inf(1)), 2, 3},
		{1, float32(math.Inf(-1)), 2, 3},
		{1, float32(math.NaN()), 2, 3},
	}
	for _, w := range cases {
		if _, err := QuantizePerChannel(w, 1, 4, 16); err == nil {
			t.Fatalf("weights %v: expected rejection", w)
		}
	}
	if _, err := QuantizePerChannel([]float32{1}, 1, 1, 0); err == nil {
		t.Fatal("kp < k: expected rejection")
	}
	if _, err := QuantizePerChannel([]float32{1}, 0, 1, 16); err == nil {
		t.Fatal("outC = 0: expected rejection")
	}
}

func TestAffineFor(t *testing.T) {
	af, err := AffineFor(-1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Zero must map exactly to the zero point and back.
	if back := af.Scale * (0 - float32(af.Zero)); back != -af.Scale*float32(af.Zero) {
		t.Fatal("arithmetic sanity")
	}
	zeroLevel := float64(af.Zero)
	if math.Abs(float64(-1)/float64(af.Scale)+zeroLevel) > 1 {
		t.Fatalf("min not representable: scale %g zero %d", af.Scale, af.Zero)
	}
	// Positive-only range still includes zero.
	af, err = AffineFor(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if af.Zero != 0 {
		t.Fatalf("positive-only range: zero point %d, want 0", af.Zero)
	}
	if math.Abs(float64(af.Scale)-5.0/255) > 1e-6 {
		t.Fatalf("positive-only scale %g, want %g", af.Scale, 5.0/255)
	}
	// Degenerate all-zero range.
	af, err = AffineFor(0, 0)
	if err != nil || af.Scale != 1 || af.Zero != 0 {
		t.Fatalf("degenerate range: %+v, %v", af, err)
	}
}

func TestAffineForRejectsNonFinite(t *testing.T) {
	bad := [][2]float32{
		{float32(math.Inf(-1)), 1},
		{-1, float32(math.Inf(1))},
		{float32(math.NaN()), 1},
		{-1, float32(math.NaN())},
		{3, -3}, // inverted
	}
	for _, c := range bad {
		if _, err := AffineFor(c[0], c[1]); err == nil {
			t.Fatalf("range [%g, %g]: expected rejection", c[0], c[1])
		}
	}
	// Finite bounds whose span overflows float32 must also be rejected.
	if _, err := AffineFor(-math.MaxFloat32, math.MaxFloat32); err == nil {
		t.Fatal("overflowing span: expected rejection")
	}
}
