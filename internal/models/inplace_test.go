package models

import (
	"math/rand"
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
// partitioned with a clipped boundary, the inference forward that runs
// BatchNorm/ReLU in place and adds residual skips into the body's output
// equals the allocating forward bit for bit, leaves its input alone, and
// gives the same answer twice.
func TestZooInferenceInPlaceIsBitIdentical(t *testing.T) {
	grid := fdsp.Grid{Rows: 2, Cols: 2}
	cfgs := append(SimScale(), ResNet18())
	for _, cfg := range cfgs {
		for _, opt := range []Options{{}, {Grid: grid, ClipLo: 0.1, ClipHi: 2}} {
			if cfg.Name == "ResNet18" && !opt.Partitioned() {
				continue // one full-scale build is enough
			}
			if opt.Partitioned() && cfg.InputW%grid.Cols != 0 {
				opt.Grid = fdsp.Grid{Rows: 2, Cols: 1} // the 1-D text model
			}
			m, err := Build(cfg, opt, 3)
			if err != nil {
				t.Fatalf("%s %+v: %v", cfg.Name, opt, err)
			}
			rng := rand.New(rand.NewSource(4))
			x := tensor.New(1, cfg.InputC, cfg.InputH, cfg.InputW)
			x.RandN(rng, 1)
			x0 := x.Clone()
			want := allocatingForward(m.Net, x)
			got := m.Net.Forward(x, false)
			if !got.SameShape(want) {
				t.Fatalf("%s: shape %v, want %v", cfg.Name, got.Shape, want.Shape)
			}
			for i, v := range want.Data {
				if got.Data[i] != v {
					t.Fatalf("%s partitioned=%v: output[%d] = %g in place, %g allocating", cfg.Name, opt.Partitioned(), i, got.Data[i], v)
				}
			}
			if !x.Equal(x0, 0) {
				t.Fatalf("%s: forward wrote its input", cfg.Name)
			}
			if again := m.Net.Forward(x, false); !again.Equal(got, 0) {
				t.Fatalf("%s: two forwards on one input differ", cfg.Name)
			}
		}
	}
}
