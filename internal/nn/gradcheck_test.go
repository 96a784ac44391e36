package nn

import (
	"math"
	"math/rand"
	"testing"

	"adcnn/internal/tensor"
)

// numericalGrad computes d(sum of f(x) weighted by w)/dx by central
// differences, where f runs the layer forward in training mode.
func numericalGrad(t *testing.T, layer Layer, x, w *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	const eps = 1e-2
	g := tensor.New(x.Shape...)
	for i := range x.Data {
		orig := x.Data[i]
		// Train-mode forward so layers that use batch statistics (BatchNorm)
		// are differentiated through the same path Backward assumes.
		x.Data[i] = orig + eps
		yp := layer.Forward(x, true)
		x.Data[i] = orig - eps
		ym := layer.Forward(x, true)
		x.Data[i] = orig
		var d float64
		for j := range yp.Data {
			d += float64(w.Data[j]) * (float64(yp.Data[j]) - float64(ym.Data[j]))
		}
		g.Data[i] = float32(d / (2 * eps))
	}
	return g
}

// checkInputGrad verifies layer.Backward against central differences for
// the weighted-sum loss L = <w, layer(x)>.
func checkInputGrad(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	y := layer.Forward(x, true)
	w := tensor.New(y.Shape...)
	w.RandN(rng, 1)
	analytic := layer.Backward(w.Clone())
	numeric := numericalGrad(t, layer, x, w)
	maxDiff, maxRef := 0.0, 1e-6
	for i := range analytic.Data {
		d := math.Abs(float64(analytic.Data[i]) - float64(numeric.Data[i]))
		if d > maxDiff {
			maxDiff = d
		}
		if r := math.Abs(float64(numeric.Data[i])); r > maxRef {
			maxRef = r
		}
	}
	if maxDiff/maxRef > tol {
		t.Fatalf("%s: input gradient mismatch: max diff %v (scale %v)", layer.Name(), maxDiff, maxRef)
	}
}

// checkParamGrad verifies parameter gradients by perturbing each
// parameter element.
func checkParamGrad(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	y := layer.Forward(x, true)
	w := tensor.New(y.Shape...)
	w.RandN(rng, 1)
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	layer.Backward(w.Clone())
	const eps = 1e-2
	for _, p := range layer.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			yp := layer.Forward(x, false)
			p.Value.Data[i] = orig - eps
			ym := layer.Forward(x, false)
			p.Value.Data[i] = orig
			var d float64
			for j := range yp.Data {
				d += float64(w.Data[j]) * (float64(yp.Data[j]) - float64(ym.Data[j]))
			}
			num := d / (2 * eps)
			ana := float64(p.Grad.Data[i])
			scale := math.Max(math.Abs(num), math.Max(math.Abs(ana), 1))
			if math.Abs(num-ana)/scale > tol {
				t.Fatalf("%s param %s[%d]: analytic %v vs numeric %v", layer.Name(), p.Name, i, ana, num)
			}
		}
	}
}

func randInput(shape ...int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(42))
	x := tensor.New(shape...)
	x.RandN(rng, 1)
	return x
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D("conv", 2, 3, 3, 3, 1, 1, rng)
	x := randInput(2, 2, 5, 5)
	checkInputGrad(t, conv, x, 2e-2)
	checkParamGrad(t, conv, x, 2e-2)
}

func TestConv2DStride2Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	conv := NewConv2D("conv_s2", 2, 2, 3, 3, 2, 1, rng)
	x := randInput(1, 2, 6, 6)
	checkInputGrad(t, conv, x, 2e-2)
	checkParamGrad(t, conv, x, 2e-2)
}

func TestConv2DNoBias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := NewConv2D("conv_nb", 1, 2, 3, 3, 1, 1, rng).NoBias()
	if len(conv.Params()) != 1 {
		t.Fatalf("NoBias should expose only weight, got %d params", len(conv.Params()))
	}
	x := randInput(1, 1, 4, 4)
	checkInputGrad(t, conv, x, 2e-2)
}

func TestConv2DForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	conv := NewConv2D("conv_k", 1, 1, 2, 2, 1, 0, rng)
	conv.Weight.Value.Data = []float32{1, 0, 0, 1} // identity-ish: sum of diagonal
	conv.Bias.Value.Data[0] = 10
	x := tensor.FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	y := conv.Forward(x, false)
	// single output: 1*1 + 4*1 + bias = 15
	if y.Len() != 1 || y.Data[0] != 15 {
		t.Fatalf("conv output %v, want [15]", y.Data)
	}
}

func TestConv2DShapeChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	conv := NewConv2D("c", 3, 4, 3, 3, 1, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong channel count")
		}
	}()
	conv.Forward(tensor.New(1, 2, 8, 8), false)
}

func TestBatchNormGradients(t *testing.T) {
	bn := NewBatchNorm2D("bn", 3)
	x := randInput(4, 3, 3, 3)
	checkInputGrad(t, bn, x, 5e-2)
}

func TestBatchNormParamGradients(t *testing.T) {
	// Use eval-mode forward in finite difference: that checks against the
	// folded-affine path, so only validate the analytic direction against
	// a train-mode numeric computed manually here.
	bn := NewBatchNorm2D("bn", 2)
	x := randInput(3, 2, 2, 2)
	rng := rand.New(rand.NewSource(11))
	y := bn.Forward(x, true)
	w := tensor.New(y.Shape...)
	w.RandN(rng, 1)
	bn.Gamma.ZeroGrad()
	bn.Beta.ZeroGrad()
	bn.Backward(w.Clone())
	const eps = 1e-2
	for _, p := range []*Param{bn.Gamma, bn.Beta} {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			// Freeze running stats so the two train-mode forwards see the
			// same normalisation statistics.
			rm, rv := bn.RunningMean.Clone(), bn.RunningVar.Clone()
			p.Value.Data[i] = orig + eps
			yp := bn.Forward(x, true)
			p.Value.Data[i] = orig - eps
			ym := bn.Forward(x, true)
			p.Value.Data[i] = orig
			bn.RunningMean, bn.RunningVar = rm, rv
			var d float64
			for j := range yp.Data {
				d += float64(w.Data[j]) * (float64(yp.Data[j]) - float64(ym.Data[j]))
			}
			num := d / (2 * eps)
			ana := float64(p.Grad.Data[i])
			if math.Abs(num-ana)/math.Max(1, math.Abs(num)) > 5e-2 {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, ana, num)
			}
		}
	}
	bn.xhat = nil
}

func TestBatchNormInferenceMatchesFoldedAffine(t *testing.T) {
	bn := NewBatchNorm2D("bn", 2)
	rng := rand.New(rand.NewSource(13))
	bn.RunningMean.RandN(rng, 1)
	bn.RunningVar.RandU(rng, 0.5, 2)
	bn.Gamma.Value.RandU(rng, 0.5, 1.5)
	bn.Beta.Value.RandN(rng, 1)
	x := randInput(2, 2, 3, 3)
	y := bn.Forward(x, false)
	// Paper Section 2.1: inference equals y = a·x + b with a = γ/σ, b = β−µγ/σ.
	for ch := 0; ch < 2; ch++ {
		sigma := float32(math.Sqrt(float64(bn.RunningVar.Data[ch]) + float64(bn.Eps)))
		a := bn.Gamma.Value.Data[ch] / sigma
		b := bn.Beta.Value.Data[ch] - bn.RunningMean.Data[ch]*a
		for i := 0; i < 2; i++ {
			for yy := 0; yy < 3; yy++ {
				for xx := 0; xx < 3; xx++ {
					want := a*x.At(i, ch, yy, xx) + b
					got := y.At(i, ch, yy, xx)
					if math.Abs(float64(want-got)) > 1e-5 {
						t.Fatalf("folded affine mismatch: %v vs %v", got, want)
					}
				}
			}
		}
	}
}

func TestReLUGradients(t *testing.T) {
	r := NewReLU("relu")
	x := randInput(2, 2, 3, 3)
	// keep inputs away from the kink for finite differences
	for i := range x.Data {
		if math.Abs(float64(x.Data[i])) < 0.05 {
			x.Data[i] = 0.2
		}
	}
	checkInputGrad(t, r, x, 1e-2)
}

func TestClippedReLUForward(t *testing.T) {
	c := NewClippedReLU("cr", 0.2, 2.0)
	x := tensor.FromSlice([]float32{-1, 0.1, 0.2, 1.0, 2.0, 3.0}, 6)
	y := c.Forward(x, false)
	want := []float32{0, 0, 0, 0.8, 1.8, 1.8}
	for i := range want {
		if math.Abs(float64(y.Data[i]-want[i])) > 1e-6 {
			t.Fatalf("ClippedReLU = %v, want %v", y.Data, want)
		}
	}
}

func TestClippedReLUGradients(t *testing.T) {
	c := NewClippedReLU("cr", 0.3, 1.5)
	x := randInput(2, 8)
	for i := range x.Data {
		// avoid the kinks at 0.3 and 1.5
		v := math.Abs(float64(x.Data[i]))
		if math.Abs(v-0.3) < 0.05 || math.Abs(v-1.5) < 0.05 {
			x.Data[i] = 0.8
		}
	}
	checkInputGrad(t, c, x, 1e-2)
}

func TestClippedReLUBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewClippedReLU("bad", 2, 1)
}

func TestClippedReLUSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := tensor.New(10000)
	x.RandN(rng, 1)
	loose := NewClippedReLU("loose", 0, 3).Forward(x, false)
	tight := NewClippedReLU("tight", 0.5, 3).Forward(x, false)
	if tight.Sparsity() <= loose.Sparsity() {
		t.Fatalf("raising the lower bound must raise sparsity: %v vs %v",
			tight.Sparsity(), loose.Sparsity())
	}
}

func TestMaxPoolGradients(t *testing.T) {
	p := NewMaxPool2D("mp", 2, 2)
	x := randInput(2, 2, 4, 4)
	checkInputGrad(t, p, x, 1e-2)
}

func TestMaxPoolForwardKnown(t *testing.T) {
	p := NewMaxPool2D("mp", 2, 2)
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	y := p.Forward(x, false)
	want := []float32{4, 8, 12, 16}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("maxpool = %v, want %v", y.Data, want)
		}
	}
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	p := NewGlobalAvgPool2D("gap")
	x := randInput(2, 3, 3, 3)
	checkInputGrad(t, p, x, 1e-2)
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	l := NewLinear("fc", 6, 4, rng)
	x := randInput(3, 6)
	checkInputGrad(t, l, x, 2e-2)
	checkParamGrad(t, l, x, 2e-2)
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("flat")
	x := randInput(2, 3, 2, 2)
	y := f.Forward(x, true)
	if y.Shape[0] != 2 || y.Shape[1] != 12 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	g := f.Backward(y.Clone())
	if !g.SameShape(x) {
		t.Fatalf("backward shape %v", g.Shape)
	}
}

func TestResidualGradientsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	body := NewSequential("body",
		NewConv2D("c1", 2, 2, 3, 3, 1, 1, rng),
	)
	res := NewResidual("res", body, nil)
	x := randInput(1, 2, 4, 4)
	checkInputGrad(t, res, x, 3e-2)
}

func TestResidualGradientsProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	body := NewSequential("body",
		NewConv2D("c1", 2, 3, 3, 3, 2, 1, rng),
	)
	short := NewSequential("short",
		NewConv2D("p", 2, 3, 1, 1, 2, 0, rng),
	)
	res := NewResidual("res", body, short)
	x := randInput(1, 2, 4, 4)
	checkInputGrad(t, res, x, 3e-2)
	if len(res.Params()) != 4 {
		t.Fatalf("expected 4 params (2 conv weights + 2 biases), got %d", len(res.Params()))
	}
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	seq := NewSequential("net",
		NewConv2D("c1", 1, 2, 3, 3, 1, 1, rng),
		NewReLU("r1"),
		NewMaxPool2D("p1", 2, 2),
		NewFlatten("f"),
		NewLinear("fc", 2*2*2, 3, rng),
	)
	x := randInput(1, 1, 4, 4)
	for i := range x.Data {
		if math.Abs(float64(x.Data[i])) < 0.05 {
			x.Data[i] = 0.3
		}
	}
	checkInputGrad(t, seq, x, 5e-2)
}
