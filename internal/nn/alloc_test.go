package nn

import (
	"math"
	"math/rand"
	"testing"

	"adcnn/internal/tensor"
)

// TestConv2DForwardIntoInferenceAllocFree verifies the acceptance
// criterion that inference-mode forward passes take all im2col/column
// scratch from the buffer pool: ForwardInto into a preallocated output
// performs zero per-call heap allocations.
func TestConv2DForwardIntoInferenceAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D("c", 8, 16, 3, 3, 1, 1, rng)
	x := tensor.New(1, 8, 16, 16)
	x.RandU(rng, -1, 1)
	y := tensor.New(conv.OutShape(x.Shape)...)
	conv.ForwardInto(y, x, false) // prime the pool
	allocs := testing.AllocsPerRun(100, func() {
		conv.ForwardInto(y, x, false)
	})
	// Tolerate sub-1 noise from a GC sweep emptying the sync.Pool mid-run.
	if allocs >= 0.5 {
		t.Fatalf("Conv2D.ForwardInto(train=false) allocates %v per call, want 0", allocs)
	}
}

// TestFusedConvAllocatesOnlyItsOutput: at inference a Conv2D → BatchNorm2D
// → ReLU chain, and a residual block whose body ends in Conv2D →
// BatchNorm2D, allocate their answer and nothing else — the same count as
// one Conv2D.Forward, the body's first conv output coming from the pool
// and going back — in f32 and in int8.
func TestFusedConvAllocatesOnlyItsOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(6))
	conv := NewConv2D("c", 8, 8, 3, 3, 1, 1, rng).NoBias()
	chain := NewSequential("chain", conv, randBN(rng, "bn", 8), NewReLU("r"))
	res := NewResidual("res", NewSequential("body",
		NewConv2D("c1", 8, 8, 3, 3, 1, 1, rng).NoBias(), randBN(rng, "bn1", 8), NewReLU("r1"),
		NewConv2D("c2", 8, 8, 3, 3, 1, 1, rng).NoBias(), randBN(rng, "bn2", 8)), nil)
	x := tensor.New(1, 8, 12, 12)
	x.RandU(rng, -1, 1)
	allocs := func(l Layer) float64 {
		l.Forward(x, false) // prime the pools
		return testing.AllocsPerRun(50, func() { l.Forward(x, false) })
	}
	for _, mode := range []string{"f32", "int8"} {
		if mode == "int8" {
			for _, root := range []Layer{chain, res} {
				if _, err := QuantizeInt8(root); err != nil {
					t.Fatal(err)
				}
			}
			if err := conv.QuantizeInt8(); err != nil {
				t.Fatal(err)
			}
		}
		// Within 0.5: a GC emptying a sync.Pool mid-run costs a fraction.
		one := allocs(conv)
		if got := allocs(chain); math.Abs(got-one) >= 0.5 {
			t.Errorf("%s: conv → bn → relu allocates %v per forward, Conv2D.Forward %v", mode, got, one)
		}
		if got := allocs(res); math.Abs(got-one) >= 0.5 {
			t.Errorf("%s: residual block allocates %v per forward, one Conv2D.Forward %v", mode, got, one)
		}
	}
}

func TestConv2DOneByOneForwardIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	conv := NewConv2D("c1x1", 16, 8, 1, 1, 1, 0, rng)
	x := tensor.New(1, 16, 12, 12)
	x.RandU(rng, -1, 1)
	y := tensor.New(conv.OutShape(x.Shape)...)
	conv.ForwardInto(y, x, false)
	allocs := testing.AllocsPerRun(100, func() {
		conv.ForwardInto(y, x, false)
	})
	if allocs >= 0.5 {
		t.Fatalf("1x1 Conv2D.ForwardInto(train=false) allocates %v per call, want 0", allocs)
	}
}

func TestLinearForwardIntoInferenceAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lin := NewLinear("fc", 64, 32, rng)
	x := tensor.New(1, 64)
	x.RandU(rng, -1, 1)
	y := tensor.New(1, 32)
	lin.ForwardInto(y, x, false)
	allocs := testing.AllocsPerRun(100, func() {
		lin.ForwardInto(y, x, false)
	})
	if allocs >= 0.5 {
		t.Fatalf("Linear.ForwardInto(train=false) allocates %v per call, want 0", allocs)
	}
}

// naiveMatMul is the reference C = A·B: a serial triple loop, independent
// of the blocked engine the layers call.
func naiveMatMul(c, a, b *tensor.Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
}

// TestConv2DOneByOnePropertyVsReference is the 1×1-conv leg of the GEMM
// property test: the no-im2col fast path must agree with the reference
// matmul of the flattened filters against the input planes.
func TestConv2DOneByOnePropertyVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		inC := 1 + rng.Intn(12)
		outC := 1 + rng.Intn(12)
		h := 1 + rng.Intn(9)
		w := 1 + rng.Intn(9)
		n := 1 + rng.Intn(3)
		conv := NewConv2D("p", inC, outC, 1, 1, 1, 0, rng)
		conv.Bias.Value.RandU(rng, -1, 1)
		x := tensor.New(n, inC, h, w)
		x.RandU(rng, -1, 1)

		got := conv.Forward(x, false)

		w2 := conv.Weight.Value.Reshape(outC, inC)
		plane := h * w
		want := tensor.New(n, outC, h, w)
		for i := 0; i < n; i++ {
			xi := tensor.FromSlice(x.Data[i*inC*plane:(i+1)*inC*plane], inC, plane)
			yi := tensor.New(outC, plane)
			naiveMatMul(yi, w2, xi)
			for oc := 0; oc < outC; oc++ {
				b := conv.Bias.Value.Data[oc]
				for j := 0; j < plane; j++ {
					want.Data[(i*outC+oc)*plane+j] = yi.Data[oc*plane+j] + b
				}
			}
		}
		if !got.Equal(want, 1e-4) {
			t.Fatalf("1x1 conv diverges from reference (inC=%d outC=%d h=%d w=%d n=%d)", inC, outC, h, w, n)
		}
	}
}

// TestConv2DGeneralPropertyVsReference cross-checks the full
// im2col+blocked-GEMM forward path against Im2Col + the reference matmul.
func TestConv2DGeneralPropertyVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		inC := 1 + rng.Intn(6)
		outC := 1 + rng.Intn(10)
		kh := 1 + rng.Intn(4)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		h := kh + rng.Intn(10)
		w := kh + rng.Intn(10)
		conv := NewConv2D("g", inC, outC, kh, kh, stride, pad, rng)
		conv.Bias.Value.RandU(rng, -1, 1)
		x := tensor.New(2, inC, h, w)
		x.RandU(rng, -1, 1)

		got := conv.Forward(x, false)

		oh, ow := conv.Geom.OutSize(h, w)
		plane := oh * ow
		w2 := conv.Weight.Value.Reshape(outC, inC*kh*kh)
		want := tensor.New(2, outC, oh, ow)
		for i := 0; i < 2; i++ {
			xi := tensor.FromSlice(x.Data[i*inC*h*w:(i+1)*inC*h*w], inC, h, w)
			cols := tensor.Im2Col(xi, conv.Geom)
			yi := tensor.New(outC, plane)
			naiveMatMul(yi, w2, cols)
			for oc := 0; oc < outC; oc++ {
				b := conv.Bias.Value.Data[oc]
				for j := 0; j < plane; j++ {
					want.Data[(i*outC+oc)*plane+j] = yi.Data[oc*plane+j] + b
				}
			}
		}
		if !got.Equal(want, 1e-3) {
			t.Fatalf("conv diverges from reference (inC=%d outC=%d k=%d s=%d p=%d h=%d w=%d)",
				inC, outC, kh, stride, pad, h, w)
		}
	}
}
