package models

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"adcnn/internal/fdsp"
	"adcnn/internal/nn"
	"adcnn/internal/tensor"
)

// allocatingForward evaluates a layer tree the way inference ran before
// chains reused their own tensors: every leaf through its own Forward,
// every container rebuilt here from its parts with a fresh tensor per
// step. It is the "before" that Net.Forward must still equal.
func allocatingForward(l nn.Layer, x *tensor.Tensor) *tensor.Tensor {
	switch l := l.(type) {
	case *nn.Sequential:
		for _, inner := range l.Layers {
			x = allocatingForward(inner, x)
		}
		return x
	case *nn.Residual:
		skip := x
		if l.Shortcut != nil {
			skip = allocatingForward(l.Shortcut, x)
		}
		sum := allocatingForward(l.Body, x).Clone().Add(skip)
		return nn.NewReLU("").Forward(sum, false)
	case *fdsp.FrontLayer:
		y := allocatingForward(l.Inner, fdsp.SplitBatch(x, l.Grid))
		return fdsp.MergeBatch(y, l.Grid, x.Shape[0])
	}
	return l.Forward(x, false)
}

// TestZooInferenceInPlaceIsBitIdentical: for every zoo model, whole and
// partitioned with a clipped boundary, in f32 and after QuantizeInt8, the
// inference forward — which fuses each Conv2D → BatchNorm2D [→ ReLU] and
// each residual block's last conv, sum and ReLU into one GEMM epilogue
// and runs the other elementwise layers in place — equals the allocating
// forward bit for bit, leaves its input alone, and gives the same answer
// twice — on every kernel tier the host reaches, and for int8 on every
// int8 engine of the tier, each engine's output equal to the others'.
func TestZooInferenceInPlaceIsBitIdentical(t *testing.T) {
	defer tensor.SetKernelTier(tensor.DetectedKernelTier())
	defer tensor.SetInt8Engine(tensor.Int8Engines()[0])
	for _, tier := range []tensor.KernelTier{tensor.TierGeneric, tensor.TierAVX2, tensor.TierAVX512} {
		if tensor.SetKernelTier(tier) == nil {
			t.Run(tier.String(), testZooInferenceInPlace)
		}
	}
}

func testZooInferenceInPlace(t *testing.T) {
	grid := fdsp.Grid{Rows: 2, Cols: 2}
	cfgs := append(SimScale(), ResNet18())
	engines := []string{"generic"} // below the AVX-512 tier
	if tensor.CurrentKernelTier() == tensor.TierAVX512 {
		engines = tensor.Int8Engines()
	}
	for _, mode := range []string{"f32", "int8"} {
		for _, cfg := range cfgs {
			for _, opt := range []Options{{}, {Grid: grid, ClipLo: 0.1, ClipHi: 2}} {
				if cfg.Name == "ResNet18" && !opt.Partitioned() {
					continue // one full-scale build is enough
				}
				if opt.Partitioned() && cfg.InputW%grid.Cols != 0 {
					opt.Grid = fdsp.Grid{Rows: 2, Cols: 1} // the 1-D text model
				}
				if mode == "f32" {
					checkInPlace(t, mode, cfg, opt)
					continue
				}
				var first *tensor.Tensor
				for _, e := range engines {
					if err := tensor.SetInt8Engine(e); err != nil {
						t.Fatal(err)
					}
					got := checkInPlace(t, mode+" "+e, cfg, opt)
					if first == nil {
						first = got
					} else if !got.Equal(first, 0) {
						t.Fatalf("%s %s partitioned=%v: int8 output differs from the %s engine's", e, cfg.Name, opt.Partitioned(), engines[0])
					}
				}
			}
		}
	}
}

// checkInPlace builds cfg with opt (quantized when mode starts with
// int8), checks its inference forward against the allocating one and
// returns the output.
func checkInPlace(t *testing.T, mode string, cfg Config, opt Options) *tensor.Tensor {
	t.Helper()
	m, err := Build(cfg, opt, 3)
	if err != nil {
		t.Fatalf("%s %+v: %v", cfg.Name, opt, err)
	}
	if strings.HasPrefix(mode, "int8") {
		if _, err := m.QuantizeInt8(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(1, cfg.InputC, cfg.InputH, cfg.InputW)
	x.RandN(rng, 1)
	x0 := x.Clone()
	want := allocatingForward(m.Net, x)
	got := m.Net.Forward(x, false)
	if !got.SameShape(want) {
		t.Fatalf("%s %s: shape %v, want %v", mode, cfg.Name, got.Shape, want.Shape)
	}
	for i, v := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
			t.Fatalf("%s %s partitioned=%v: output[%d] = %g fused, %g allocating", mode, cfg.Name, opt.Partitioned(), i, got.Data[i], v)
		}
	}
	if !x.Equal(x0, 0) {
		t.Fatalf("%s %s: forward wrote its input", mode, cfg.Name)
	}
	if again := m.Net.Forward(x, false); !again.Equal(got, 0) {
		t.Fatalf("%s %s: two forwards on one input differ", mode, cfg.Name)
	}
	return got
}
