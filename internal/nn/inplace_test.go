package nn

import (
	"math"
	"math/rand"
	"testing"

	"adcnn/internal/tensor"
)

// eachDirectly is the allocating forward the chain must agree with: every
// layer's own Forward, one fresh tensor per layer.
func eachDirectly(layers []Layer, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range layers {
		x = l.Forward(x, false)
	}
	return x
}

func randBN(rng *rand.Rand, label string, c int) *BatchNorm2D {
	bn := NewBatchNorm2D(label, c)
	bn.Gamma.Value.RandU(rng, 0.5, 1.5)
	bn.Beta.Value.RandU(rng, -1, 1)
	bn.RunningMean.RandU(rng, -1, 1)
	bn.RunningVar.RandU(rng, 0.5, 2)
	return bn
}

// TestInferenceChainInPlaceMatchesAllocating: BatchNorm, ReLU and
// ClippedReLU running in their predecessor's output give bit for bit what
// they give with a tensor each, the input survives, and a second call on
// the same input agrees with the first.
func TestInferenceChainInPlaceMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	body := NewSequential("body",
		NewConv2D("c1", 4, 6, 3, 3, 1, 1, rng).NoBias(), randBN(rng, "bn1", 6), NewReLU("r1"),
		NewConv2D("c2", 6, 6, 3, 3, 1, 1, rng), randBN(rng, "bn2", 6))
	chain := []Layer{
		NewConv2D("stem", 3, 4, 3, 3, 1, 1, rng), randBN(rng, "bn0", 4), NewReLU("r0"),
		NewMaxPool2D("pool", 2, 2),
		NewResidual("res", body, NewSequential("short", NewConv2D("proj", 4, 6, 1, 1, 1, 0, rng), randBN(rng, "bnp", 6))),
		NewClippedReLU("clip", 0.1, 1.5),
		NewFlatten("flat"), NewReLU("r2"), NewLinear("fc", 6*4*4, 5, rng), NewReLU("r3"),
	}
	x := tensor.New(2, 3, 8, 8)
	x.RandN(rng, 1)
	x0 := x.Clone()
	want := eachDirectly(chain, x)
	seq := NewSequential("net", chain...)
	got := seq.Forward(x, false)
	if !got.Equal(want, 0) {
		t.Fatal("in-place chain differs from the allocating forward")
	}
	if !x.Equal(x0, 0) {
		t.Fatal("the chain wrote its input")
	}
	if again := seq.Forward(x, false); !again.Equal(got, 0) {
		t.Fatal("second forward on the same input differs")
	}
	if up := seq.ForwardFrom(seq.ForwardUpTo(x, 4, false), 4, false); !up.Equal(want, 0) {
		t.Fatal("ForwardUpTo + ForwardFrom differs from Forward")
	}
}

// TestInferenceChainNeverWritesItsInput: an in-place layer that opens a
// chain, or follows only views of the input, still allocates.
func TestInferenceChainNeverWritesItsInput(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := tensor.New(1, 3, 4, 4)
	x.RandN(rng, 1)
	x0 := x.Clone()
	for name, seq := range map[string]*Sequential{
		"opens the chain":       NewSequential("a", NewReLU("r"), randBN(rng, "bn", 3)),
		"after a view":          NewSequential("b", NewFlatten("f"), NewReLU("r")),
		"after an empty nested": NewSequential("c", NewSequential("empty"), randBN(rng, "bn", 3), NewReLU("r")),
		"identity residual":     NewSequential("d", NewResidual("res", NewSequential("empty"), nil)),
	} {
		want := eachDirectly(seq.Layers, x)
		if got := seq.Forward(x, false); !got.Equal(want, 0) {
			t.Errorf("%s: differs from the allocating forward", name)
		}
		if !x.Equal(x0, 0) {
			t.Fatalf("%s: the chain wrote its input", name)
		}
	}
}

// TestReLUIntoEdgeValues pins the inference ReLU, allocating and in
// place, to v > 0: +0 for −0, negatives and NaN.
func TestReLUIntoEdgeValues(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	src := []float32{0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 3, -3, inf, -inf, nan, -nan, math.MaxFloat32}
	want := []float32{0, 0, 1e-45, 0, 3, 0, inf, 0, 0, 0, math.MaxFloat32}
	r := NewReLU("r")
	x := tensor.FromSlice(append([]float32(nil), src...), len(src))
	got := r.Forward(x, false)
	r.ForwardInPlace(x)
	for i := range want {
		for _, y := range []*tensor.Tensor{got, x} {
			if math.Float32bits(y.Data[i]) != math.Float32bits(want[i]) {
				t.Errorf("relu(%g) = %g, want %g", src[i], y.Data[i], want[i])
			}
		}
	}
}

// TestMaxPoolInferenceMatchesTrainingScan: the row-wise inference path and
// the argmax scan agree exactly, on the windows the zoo uses and on
// overlapping and non-dividing ones, negative maxima included.
func TestMaxPoolInferenceMatchesTrainingScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, ks := range [][2]int{{2, 2}, {3, 2}, {3, 3}, {3, 1}, {1, 1}, {2, 3}} {
		for trial := 0; trial < 10; trial++ {
			p := NewMaxPool2D("p", ks[0], ks[1])
			x := tensor.New(1+rng.Intn(2), 1+rng.Intn(3), ks[0]+rng.Intn(9), ks[0]+rng.Intn(9))
			x.RandN(rng, 1)
			if trial%2 == 0 {
				for i := range x.Data {
					x.Data[i] -= 5 // all-negative windows
				}
			}
			if got, want := p.Forward(x, false), p.Forward(x, true); !got.Equal(want, 0) {
				t.Fatalf("K=%d S=%d on %v: inference and training forwards differ", ks[0], ks[1], x.Shape)
			}
		}
	}
}
