package nn

import (
	"math"
	"math/rand"
	"testing"

	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// requantRows is the unfused int8 epilogue: the exact int32 product as
// a naive loop, then each output row requantized as
// scale·float32(acc − corr) + bias with every operation rounded on its
// own. The fused kernels must reproduce it bit for bit.
func requantRows(y []float32, ldy int, w *quant.PerChannel, bq []uint8, m, n int, af quant.Affine, bias []float32) {
	z := int32(af.Zero)
	row := make([]int8, w.KP)
	for i := 0; i < m; i++ {
		w.Data.Row(i, row)
		scale, corr := w.Scales[i]*af.Scale, z*w.RowSum[i]
		var b float32
		if bias != nil {
			b = bias[i]
		}
		for j := 0; j < n; j++ {
			var acc int32
			for k, q := range row {
				acc += int32(q) * int32(bq[j*w.KP+k])
			}
			y[i*ldy+j] = float32(scale*float32(acc-corr)) + b
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: y[%d] = %g, want %g", what, i, got[i], want[i])
		}
	}
}

// withSignedZeros overwrites every seventh element of xs with +0 and
// every eleventh with −0.
func withSignedZeros(xs []float32) {
	for i := range xs {
		switch {
		case i%11 == 0:
			xs[i] = float32(math.Copysign(0, -1))
		case i%7 == 0:
			xs[i] = 0
		}
	}
}

// forEachInt8Engine runs f once per int8 GEMM engine the host can run.
func forEachInt8Engine(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer tensor.SetInt8Engine(tensor.Int8Engines()[0])
	for _, e := range tensor.Int8Engines() {
		if err := tensor.SetInt8Engine(e); err != nil {
			t.Fatal(err)
		}
		t.Run(e, f)
	}
}

// TestInt8LayersBitIdenticalToUnfused runs the int8 Conv2D forward, its
// levels entry point and the int8 Linear forward at the ResNet18 shapes
// on every int8 engine and compares them bit for bit with the unfused
// formula: the column packers (held to their per-element oracles in
// tensor), a naive int32 product, per-row requantize.
func TestInt8LayersBitIdenticalToUnfused(t *testing.T) {
	forEachInt8Engine(t, testInt8LayersBitIdenticalToUnfused)
}

func testInt8LayersBitIdenticalToUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, c := range []struct {
		name                     string
		inC, outC, k, stride, hw int
	}{
		{"stem_3to64_7x7s2_112", 3, 64, 7, 2, 112},
		{"64ch_28", 64, 64, 3, 1, 28},
		{"256ch_14", 256, 256, 3, 1, 14},
		{"512ch_7", 512, 512, 3, 1, 7},
	} {
		conv := NewConv2D(c.name, c.inC, c.outC, c.k, c.k, c.stride, c.k/2, rng)
		if err := conv.QuantizeInt8(); err != nil {
			t.Fatal(err)
		}
		x := tensor.New(1, c.inC, c.hw, c.hw)
		x.RandU(rng, -1, 2)
		withSignedZeros(x.Data)
		oh, ow := conv.Geom.OutSize(c.hw, c.hw)
		plane := oh * ow
		got := tensor.New(1, c.outC, oh, ow)
		conv.ForwardInto(got, x, false)

		mn, mx := tensor.MinMax(x.Data)
		af, err := quant.AffineFor(mn, mx)
		if err != nil {
			t.Fatal(err)
		}
		kp := conv.int8w.KP
		bq := make([]uint8, plane*kp)
		tensor.Im2ColQuantSlice(bq, x.Data, c.inC, c.hw, c.hw, conv.Geom, af.InvScale(), af.Zero, kp)
		want := make([]float32, c.outC*plane)
		requantRows(want, plane, conv.int8w, bq, c.outC, plane, af, conv.Bias.Value.Data)
		sameBits(t, c.name+" forward", got.Data, want)

		levels := make([]uint8, len(x.Data))
		tensor.QuantizeAffineSlice(levels, x.Data, af.InvScale(), af.Zero)
		tensor.Im2ColU8Slice(bq, levels, c.inC, c.hw, c.hw, conv.Geom, af.Zero, kp)
		requantRows(want, plane, conv.int8w, bq, c.outC, plane, af, conv.Bias.Value.Data)
		conv.ForwardLevelsInto(got, levels, c.hw, c.hw, af)
		sameBits(t, c.name+" levels", got.Data, want)
	}

	fc := NewLinear("fc", 512, 1000, rng)
	if err := fc.QuantizeInt8(); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 512)
	x.RandU(rng, 0, 3)
	withSignedZeros(x.Data)
	got := tensor.New(1, 1000)
	fc.ForwardInto(got, x, false)
	mn, mx := tensor.MinMax(x.Data)
	af, err := quant.AffineFor(mn, mx)
	if err != nil {
		t.Fatal(err)
	}
	bq := make([]uint8, fc.int8w.KP)
	tensor.QuantizeAffineSlice(bq[:512], x.Data, af.InvScale(), af.Zero)
	want := make([]float32, 1000)
	requantRows(want, 1, fc.int8w, bq, 1000, 1, af, fc.Bias.Value.Data)
	sameBits(t, "fc_512to1000", got.Data, want)
}

// TestInt8ForwardNaNTakesF32Fallback puts a NaN at every position of a
// sample — the first element, inside each vector step, in every lane of
// the min/max chains and in the scalar tail — and requires the int8
// conv and linear forwards to hand the sample to the f32 path, whose
// output they must then match bit for bit. The conv also runs fused with
// a BatchNorm and a ReLU, whose fallback keeps the epilogue: the int8
// chain must equal the f32 layers run one pass each.
func TestInt8ForwardNaNTakesF32Fallback(t *testing.T) {
	forEachInt8Engine(t, testInt8ForwardNaNTakesF32Fallback)
}

func testInt8ForwardNaNTakesF32Fallback(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	conv := NewConv2D("t", 8, 4, 3, 3, 1, 1, rng)
	chain := NewSequential("fused", conv, randBN(rng, "bn", 4), NewReLU("r"))
	lin := NewLinear("t", 200, 6, rng)
	x := tensor.New(1, 8, 5, 5) // 200 elements: six 32-wide steps and a tail of 8
	x.RandU(rng, -1, 1)
	xl := tensor.New(1, 200)
	yf := tensor.New(conv.OutShape(x.Shape)...)
	yq := tensor.New(conv.OutShape(x.Shape)...)
	ylf, ylq := tensor.New(1, 6), tensor.New(1, 6)
	nan := float32(math.NaN())
	for p := range x.Data {
		saved := x.Data[p]
		x.Data[p] = nan
		copy(xl.Data, x.Data)

		conv.ClearInt8()
		lin.ClearInt8()
		conv.ForwardInto(yf, x, false)
		lin.ForwardInto(ylf, xl, false)
		passes := eachDirectly(chain.Layers, x)
		if err := conv.QuantizeInt8(); err != nil {
			t.Fatal(err)
		}
		if err := lin.QuantizeInt8(); err != nil {
			t.Fatal(err)
		}
		conv.ForwardInto(yq, x, false)
		lin.ForwardInto(ylq, xl, false)
		sameBits(t, "conv with NaN", yq.Data, yf.Data)
		sameBits(t, "linear with NaN", ylq.Data, ylf.Data)
		sameBits(t, "fused conv → bn → relu with NaN", chain.Forward(x, false).Data, passes.Data)
		x.Data[p] = saved
	}
}
