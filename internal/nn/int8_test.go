package nn

import (
	"math"
	"math/rand"
	"testing"

	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// convInt8Bound computes the analytic per-element quantization error
// bound for conv output (oc, j): activation step × Σ|w[oc]| plus half
// the weight step × Σ|x̂[j]|, with a small absolute slack for the f32
// requantization arithmetic.
func convInt8Bound(w []float32, oc, kdim int, bq []uint8, j, kp int, af quant.Affine, wScale float32) float64 {
	var sumAbsW, sumAbsXhat float64
	for k := 0; k < kdim; k++ {
		sumAbsW += math.Abs(float64(w[oc*kdim+k]))
		xhat := float64(af.Scale) * float64(int32(bq[j*kp+k])-int32(af.Zero))
		sumAbsXhat += math.Abs(xhat)
	}
	return float64(af.Scale)*sumAbsW + float64(wScale)/2*sumAbsXhat + 1e-3
}

// TestConv2DInt8VsF32Oracle pins the int8 forward against the f32
// forward within the analytic quantization error bound, across
// geometries (padding, stride, 1×1) and a multi-sample batch.
func TestConv2DInt8VsF32Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type cfg struct {
		inC, outC, kh, kw, stride, pad, h, w, n int
	}
	for _, c := range []cfg{
		{3, 8, 3, 3, 1, 1, 12, 12, 1},
		{4, 6, 3, 3, 2, 1, 11, 9, 2},
		{8, 5, 1, 1, 1, 0, 7, 7, 1},
	} {
		conv := NewConv2D("t", c.inC, c.outC, c.kh, c.kw, c.stride, c.pad, rng)
		x := tensor.New(c.n, c.inC, c.h, c.w)
		x.RandU(rng, -2, 2)
		oh, ow := conv.Geom.OutSize(c.h, c.w)
		yf := tensor.New(c.n, c.outC, oh, ow)
		conv.ForwardInto(yf, x, false)
		if err := conv.QuantizeInt8(); err != nil {
			t.Fatal(err)
		}
		if !conv.Int8() {
			t.Fatal("Int8() false after QuantizeInt8")
		}
		yq := tensor.New(c.n, c.outC, oh, ow)
		conv.ForwardInto(yq, x, false)

		kdim := c.inC * c.kh * c.kw
		kp := tensor.Int8KP(kdim)
		plane := oh * ow
		wd := conv.Weight.Value.Data
		for i := 0; i < c.n; i++ {
			xs := x.Data[i*c.inC*c.h*c.w : (i+1)*c.inC*c.h*c.w]
			mn, mx := tensor.MinMax(xs)
			af, err := quant.AffineFor(mn, mx)
			if err != nil {
				t.Fatal(err)
			}
			bq := make([]uint8, plane*kp)
			tensor.Im2ColQuantSlice(bq, xs, c.inC, c.h, c.w, conv.Geom, af.InvScale(), af.Zero, kp)
			for oc := 0; oc < c.outC; oc++ {
				// Reconstruct the per-channel scale the snapshot used.
				var maxAbs float32
				for k := 0; k < kdim; k++ {
					if a := float32(math.Abs(float64(wd[oc*kdim+k]))); a > maxAbs {
						maxAbs = a
					}
				}
				wScale := maxAbs / 127
				for j := 0; j < plane; j++ {
					idx := (i*c.outC+oc)*plane + j
					bound := convInt8Bound(wd, oc, kdim, bq, j, kp, af, wScale)
					if d := math.Abs(float64(yq.Data[idx] - yf.Data[idx])); d > bound {
						t.Fatalf("cfg %+v y[%d][%d][%d]: int8 %g vs f32 %g, |Δ|=%g > bound %g",
							c, i, oc, j, yq.Data[idx], yf.Data[idx], d, bound)
					}
				}
			}
		}
	}
}

// TestLinearInt8VsF32Oracle pins the int8 linear forward within the
// analytic bound.
func TestLinearInt8VsF32Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	lin := NewLinear("t", 50, 12, rng)
	x := tensor.New(3, 50)
	x.RandU(rng, -3, 3)
	yf := tensor.New(3, 12)
	lin.ForwardInto(yf, x, false)
	if err := lin.QuantizeInt8(); err != nil {
		t.Fatal(err)
	}
	yq := tensor.New(3, 12)
	lin.ForwardInto(yq, x, false)

	mn, mx := tensor.MinMax(x.Data)
	af, _ := quant.AffineFor(mn, mx)
	wd := lin.Weight.Value.Data
	for i := 0; i < 3; i++ {
		for oc := 0; oc < 12; oc++ {
			var maxAbs float32
			var sumAbsW, sumAbsXhat float64
			for k := 0; k < 50; k++ {
				wv := wd[oc*50+k]
				if a := float32(math.Abs(float64(wv))); a > maxAbs {
					maxAbs = a
				}
				sumAbsW += math.Abs(float64(wv))
				q := tensor.QuantizeAffine(x.Data[i*50+k], af.InvScale(), float32(af.Zero))
				sumAbsXhat += math.Abs(float64(af.Scale) * float64(int32(q)-int32(af.Zero)))
			}
			bound := float64(af.Scale)*sumAbsW + float64(maxAbs/127)/2*sumAbsXhat + 1e-3
			idx := i*12 + oc
			if d := math.Abs(float64(yq.Data[idx] - yf.Data[idx])); d > bound {
				t.Fatalf("y[%d][%d]: int8 %g vs f32 %g, |Δ|=%g > bound %g",
					i, oc, yq.Data[idx], yf.Data[idx], d, bound)
			}
		}
	}
}

// TestForwardLevelsMatchesInt8Forward: feeding pre-quantized levels must
// reproduce the internal quantize-then-multiply path bit-exactly, since
// both gathers produce the same packed operand.
func TestForwardLevelsMatchesInt8Forward(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	conv := NewConv2D("t", 4, 7, 3, 3, 1, 1, rng)
	if err := conv.QuantizeInt8(); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 4, 10, 10)
	x.RandU(rng, -1, 3)
	oh, ow := conv.Geom.OutSize(10, 10)
	yInt8 := tensor.New(1, 7, oh, ow)
	conv.ForwardInto(yInt8, x, false)

	mn, mx := tensor.MinMax(x.Data)
	af, err := quant.AffineFor(mn, mx)
	if err != nil {
		t.Fatal(err)
	}
	levels := make([]uint8, len(x.Data))
	tensor.QuantizeAffineSlice(levels, x.Data, af.InvScale(), af.Zero)
	yLv := tensor.New(1, 7, oh, ow)
	conv.ForwardLevelsInto(yLv, levels, 10, 10, af)
	for i := range yLv.Data {
		if yLv.Data[i] != yInt8.Data[i] {
			t.Fatalf("levels path diverges at %d: %g vs %g", i, yLv.Data[i], yInt8.Data[i])
		}
	}
}

// TestInt8ForwardAllocFree: the int8 conv and linear forwards must not
// allocate on the steady-state inference path.
func TestInt8ForwardAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(43))
	conv := NewConv2D("t", 8, 16, 3, 3, 1, 1, rng)
	if err := conv.QuantizeInt8(); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 8, 14, 14)
	x.RandU(rng, -1, 1)
	y := tensor.New(conv.OutShape(x.Shape)...)
	conv.ForwardInto(y, x, false) // prime the pools
	if avg := testing.AllocsPerRun(100, func() {
		conv.ForwardInto(y, x, false)
	}); avg >= 0.5 {
		t.Fatalf("int8 Conv2D forward allocates %.2f/op", avg)
	}

	lin := NewLinear("t", 128, 10, rng)
	if err := lin.QuantizeInt8(); err != nil {
		t.Fatal(err)
	}
	xl := tensor.New(1, 128)
	xl.RandU(rng, -1, 1)
	yl := tensor.New(1, 10)
	lin.ForwardInto(yl, xl, false)
	if avg := testing.AllocsPerRun(100, func() {
		lin.ForwardInto(yl, xl, false)
	}); avg >= 0.5 {
		t.Fatalf("int8 Linear forward allocates %.2f/op", avg)
	}

	// Levels entry point likewise.
	mn, mx := tensor.MinMax(x.Data)
	af, _ := quant.AffineFor(mn, mx)
	levels := make([]uint8, len(x.Data))
	tensor.QuantizeAffineSlice(levels, x.Data, af.InvScale(), af.Zero)
	conv.ForwardLevelsInto(y, levels, 14, 14, af)
	if avg := testing.AllocsPerRun(100, func() {
		conv.ForwardLevelsInto(y, levels, 14, 14, af)
	}); avg >= 0.5 {
		t.Fatalf("ForwardLevelsInto allocates %.2f/op", avg)
	}
}

// TestQuantizeInt8Walker: the tree walker quantizes every Conv2D and
// Linear through Sequential and Residual containers, and ClearInt8
// restores bit-exact f32 execution.
func TestQuantizeInt8Walker(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	body := NewSequential("body", NewConv2D("c2", 6, 6, 3, 3, 1, 1, rng).NoBias())
	net := NewSequential("net",
		NewConv2D("c1", 3, 6, 3, 3, 1, 1, rng),
		NewReLU("r1"),
		NewResidual("res", body, nil),
		NewFlatten("f"),
		NewLinear("l1", 6*8*8, 4, rng),
	)
	x := tensor.New(1, 3, 8, 8)
	x.RandU(rng, -1, 1)
	before := net.Forward(x, false).Clone()

	n, err := QuantizeInt8(net)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("quantized %d layers, want 3", n)
	}
	quantized := net.Forward(x, false)
	var diff float64
	for i := range before.Data {
		diff += math.Abs(float64(quantized.Data[i] - before.Data[i]))
	}
	if diff == 0 {
		t.Fatal("int8 forward identical to f32 — quantized path likely not taken")
	}

	ClearInt8(net)
	after := net.Forward(x, false)
	for i := range before.Data {
		if after.Data[i] != before.Data[i] {
			t.Fatalf("ClearInt8 did not restore f32 execution at %d", i)
		}
	}
}

// TestQuantizeInt8RejectsNonFinite: a layer with a NaN weight fails to
// quantize with a labelled error.
func TestQuantizeInt8RejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	conv := NewConv2D("bad", 2, 2, 3, 3, 1, 1, rng)
	conv.Weight.Value.Data[5] = float32(math.NaN())
	if err := conv.QuantizeInt8(); err == nil {
		t.Fatal("expected error for NaN weight")
	}
	if conv.Int8() {
		t.Fatal("failed quantization must not enable the int8 path")
	}
}
