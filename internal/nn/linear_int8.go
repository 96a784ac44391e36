package nn

import (
	"fmt"

	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// Int8 inference path for Linear, mirroring conv_int8.go: per-output
// symmetric int8 weights, one dynamic affine for the whole input batch
// (inference batches here are single tiles or single samples), exact
// int32 accumulation, fused requantize+bias.

// QuantizeInt8 enables the int8 inference path, snapshotting the current
// weights with one symmetric scale per output row.
func (l *Linear) QuantizeInt8() error {
	pc, err := quant.QuantizePerChannel(l.Weight.Value.Data, l.Out, l.In, tensor.Int8KP(l.In))
	if err != nil {
		return fmt.Errorf("nn: %s: %w", l.label, err)
	}
	l.int8w = pc
	return nil
}

// ClearInt8 drops the int8 snapshot, restoring the f32 inference path.
func (l *Linear) ClearInt8() { l.int8w = nil }

// Int8 reports whether the int8 inference path is enabled.
func (l *Linear) Int8() bool { return l.int8w != nil }

// forwardInt8 computes y = x·Wᵀ + b through the int8 engine. Returns
// false (leaving y untouched) when the activation range is non-finite,
// in which case the caller runs the f32 path.
func (l *Linear) forwardInt8(y, x *tensor.Tensor) bool {
	mn, mx := tensor.MinMax(x.Data)
	af, err := quant.AffineFor(mn, mx)
	if err != nil {
		return false
	}
	n := x.Shape[0]
	kp := l.int8w.KP
	bq := tensor.GetBytes(n * kp)
	for i := 0; i < n; i++ {
		row := bq[i*kp : (i+1)*kp]
		tensor.QuantizeAffineSlice(row[:l.In], x.Data[i*l.In:(i+1)*l.In], af.InvScale(), af.Zero)
		for k := l.In; k < kp; k++ {
			row[k] = 0
		}
	}
	// y is [n][Out]: one single-column product per sample writes its row.
	rq := tensor.Int8Requant{WScale: l.int8w.Scales, RowSum: l.int8w.RowSum,
		Bias: l.Bias.Value.Data, XScale: af.Scale, XZero: int32(af.Zero)}
	for i := 0; i < n; i++ {
		tensor.GemmInt8RequantInto(y.Data[i*l.Out:], 1, l.int8w.Data, bq[i*kp:], l.Out, 1, kp, rq)
	}
	tensor.PutBytes(bq)
	return true
}
