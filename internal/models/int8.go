package models

// Int8 operating mode for a built model: per-channel weight quantization
// across all Front and Back blocks, plus the levels-entry fast path the
// Conv worker uses to feed decoded wire payloads straight into the first
// convolution's int8 activation buffer.

import (
	"adcnn/internal/nn"
	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// QuantizeInt8 snapshots int8 weights on every Conv2D and Linear in the
// model, enabling quantized inference. It walks Front, Boundary and Back
// directly (not Net: the FDSP wrapper is opaque to the layer walker) —
// the containers share layer objects, so Net picks up the snapshots too.
// Call after loading trained parameters; re-call if parameters change.
// Returns the number of quantized layers. On error the model is rolled
// back to pure f32 execution.
func (m *Model) QuantizeInt8() (int, error) {
	total := 0
	for _, root := range []*nn.Sequential{m.Front, m.Boundary, m.Back} {
		n, err := nn.QuantizeInt8(root)
		if err != nil {
			m.ClearInt8()
			return 0, err
		}
		total += n
	}
	return total, nil
}

// ClearInt8 drops every int8 snapshot, restoring f32 inference.
func (m *Model) ClearInt8() {
	nn.ClearInt8(m.Front)
	nn.ClearInt8(m.Boundary)
	nn.ClearInt8(m.Back)
}

// frontEntryConv returns the first convolution of the first Front block
// when the block opens with a plain Conv2D. Residual-entry fronts (the
// projection shortcut consumes the same input as the body) return false:
// those models still run int8 inside each conv but cannot consume a
// quantized input tile directly.
func (m *Model) frontEntryConv() (*nn.Conv2D, bool) {
	if len(m.Front.Layers) == 0 {
		return nil, false
	}
	block, ok := m.Front.Layers[0].(*nn.Sequential)
	if !ok || len(block.Layers) == 0 {
		return nil, false
	}
	conv, ok := block.Layers[0].(*nn.Conv2D)
	return conv, ok
}

// Int8InputOK reports whether the model can consume quantized input
// tiles via ForwardFrontLevels: the front must open with a plain Conv2D
// that has an int8 snapshot.
func (m *Model) Int8InputOK() bool {
	conv, ok := m.frontEntryConv()
	return ok && conv.Int8()
}

// ForwardFrontLevels runs the Front stack on a single input tile whose
// activations arrive as uint8 affine levels (a decoded quantized wire
// payload) of shape [c, h, w]. The entry convolution consumes the
// levels directly through its int8 GEMM — no dequant→f32→requant round
// trip on the boundary tensor — into a pooled tensor that goes back once
// the next layer has read it. The rest of block 0 runs layer by layer,
// each through its own Forward (as bench's replay times it), and the
// later blocks through Front.ForwardFrom, each block's intermediates
// taken from the pool and only its answer fresh. Returns (nil, false)
// when the model cannot take the levels entry (see Int8InputOK) or the
// shape does not match the entry convolution; the caller then
// dequantizes and runs the ordinary f32 Front.
func (m *Model) ForwardFrontLevels(levels []uint8, c, h, w int, af quant.Affine) (*tensor.Tensor, bool) {
	conv, ok := m.frontEntryConv()
	if !ok || !conv.Int8() {
		return nil, false
	}
	if c != conv.InC || h <= 0 || w <= 0 || len(levels) != c*h*w {
		return nil, false
	}
	oh, ow := conv.Geom.OutSize(h, w)
	// live is the conv's pooled output until no tensor views it any more.
	live := tensor.GetTensor(1, conv.OutC, oh, ow)
	conv.ForwardLevelsInto(live, levels, h, w, af)
	cur := live
	for _, l := range m.Front.Layers[0].(*nn.Sequential).Layers[1:] {
		cur = l.Forward(cur, false)
		if live != nil && !cur.SharesData(live) {
			tensor.PutTensor(live)
			live = nil
		}
	}
	y := m.Front.ForwardFrom(cur, 1, false)
	if live != nil && !y.SharesData(live) {
		tensor.PutTensor(live)
	}
	return y, true
}
