package nn

import (
	"fmt"
	"unsafe"

	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// Int8 inference path for Conv2D. QuantizeInt8 snapshots the current
// weights as per-output-channel symmetric int8 in the packed layout the
// int8 GEMM consumes; inference forwards then quantize each sample's
// activations with a dynamic affine (min/max of the sample), run the
// int8×uint8→int32 GEMM, and requantize straight into the f32 output:
//
//	y[oc][j] = s_w[oc]·s_x·(acc[oc][j] − zp·Σ_k w_q[oc][k]) + bias[oc]
//
// The f32 weights are untouched — training and the f32 oracle path keep
// working — but the snapshot goes stale if weights change afterwards;
// re-call QuantizeInt8 (or ClearInt8) after updating parameters.

// QuantizeInt8 enables the int8 inference path, snapshotting the current
// weights with one symmetric scale per output channel.
func (c *Conv2D) QuantizeInt8() error {
	kdim := c.InC * c.Geom.KH * c.Geom.KW
	pc, err := quant.QuantizePerChannel(c.Weight.Value.Data, c.OutC, kdim, tensor.Int8KP(kdim))
	if err != nil {
		return fmt.Errorf("nn: %s: %w", c.label, err)
	}
	c.int8w = pc
	return nil
}

// ClearInt8 drops the int8 snapshot, restoring the f32 inference path.
func (c *Conv2D) ClearInt8() { c.int8w = nil }

// Int8 reports whether the int8 inference path is enabled.
func (c *Conv2D) Int8() bool { return c.int8w != nil }

// forwardSampleInt8 is the int8 counterpart of forwardSample: quantizing
// im2col into pooled uint8 scratch, then the int8 GEMM with its fused
// requantize, bias and ep's post-ops (bn folded in when not nil) into ys.
// Zero allocations. If the sample's activation range is non-finite
// (NaN/Inf input) it falls back to the f32 path, with the same
// epilogue, which propagates the values faithfully.
func (c *Conv2D) forwardSampleInt8(yd, xd []float32, i, h, w, oh, ow int, ep tensor.Epilogue, bn *BatchNorm2D) {
	plane := oh * ow
	sample := c.InC * h * w
	outSample := c.OutC * plane
	xs := xd[i*sample : (i+1)*sample]
	ys := yd[i*outSample : (i+1)*outSample]
	mn, mx := tensor.MinMax(xs)
	af, err := quant.AffineFor(mn, mx)
	if err != nil {
		c.forwardSample(yd, xd, i, h, w, oh, ow, false, ep, bn)
		return
	}
	// The fold rides at the end of the column scratch, as in forwardSample;
	// the columns are kp-byte rows, so it starts 16-byte aligned.
	cols := plane * c.int8w.KP
	bq := tensor.GetBytes(cols + 4*c.foldLen(bn))
	if bn != nil {
		bn.foldInto(&ep, unsafe.Slice((*float32)(unsafe.Pointer(&bq[cols])), c.foldLen(bn)))
	}
	tensor.Im2ColQuantSlice(bq[:cols], xs, c.InC, h, w, c.Geom, af.InvScale(), af.Zero, c.int8w.KP)
	c.int8Gemm(ys, bq[:cols], plane, af, ep)
	tensor.PutBytes(bq)
}

// int8Gemm multiplies the packed activation columns against the int8
// weight snapshot, requantizing each output channel row (with ep's bias
// and post-ops) into ys[OutC][plane] as the kernel finishes it.
func (c *Conv2D) int8Gemm(ys []float32, bq []uint8, plane int, af quant.Affine, ep tensor.Epilogue) {
	tensor.GemmInt8RequantInto(ys, plane, &c.int8w.Data, bq, plane, tensor.Int8Requant{
		WScale: c.int8w.Scales, RowSum: c.int8w.RowSum, XScale: af.Scale, XZero: int32(af.Zero), Epilogue: ep})
}

// ForwardLevelsInto runs the int8 forward on a single sample whose
// activations are already uint8 affine levels — a decoded wire payload —
// writing the f32 output [1, OutC, OH, OW] into y. This is how the Conv
// worker consumes a quantized tile without a dequant→f32→requant round
// trip: the levels feed the quantized im2col gather directly, with
// spatial padding reading as af.Zero (the level of 0.0). Requires
// QuantizeInt8 to have been called.
func (c *Conv2D) ForwardLevelsInto(y *tensor.Tensor, levels []uint8, h, w int, af quant.Affine) {
	if c.int8w == nil {
		panic(fmt.Sprintf("nn: %s ForwardLevelsInto without QuantizeInt8", c.label))
	}
	if len(levels) < c.InC*h*w {
		panic(fmt.Sprintf("nn: %s levels slice %d below %d×%d×%d", c.label, len(levels), c.InC, h, w))
	}
	oh, ow := c.Geom.OutSize(h, w)
	if y.Rank() != 4 || y.Shape[0] != 1 || y.Shape[1] != c.OutC || y.Shape[2] != oh || y.Shape[3] != ow {
		panic(fmt.Sprintf("nn: %s output shape %v, want [1 %d %d %d]", c.label, y.Shape, c.OutC, oh, ow))
	}
	plane := oh * ow
	kp := c.int8w.KP
	bq := tensor.GetBytes(plane * kp)
	tensor.Im2ColU8Slice(bq, levels, c.InC, h, w, c.Geom, af.Zero, kp)
	c.int8Gemm(y.Data, bq, plane, af, tensor.Epilogue{Bias: c.bias()})
	tensor.PutBytes(bq)
}
