package quant

import (
	"fmt"
	"math"

	"adcnn/internal/tensor"
)

// Per-channel weight quantization for the int8 compute path. The global
// Quantizer above serves the boundary codec (activations in [0, Range]);
// weights are signed and their dynamic range varies per output channel,
// so each channel row gets its own symmetric int8 scale:
//
//	w[oc][k] ≈ Scales[oc] · Data[oc][k],  Data ∈ [-127, 127]
//
// Rows are padded from K to KP (the int8 GEMM packing granularity) with
// zeros, and each row's code sum is precomputed for the activation
// zero-point correction: Σ_k w_q·(x_q − zp) = Σ w_q·x_q − zp·RowSum.

// PerChannel holds per-output-channel symmetrically quantized int8
// weights in the packed layout the int8 GEMM consumes.
type PerChannel struct {
	OutC, K, KP int
	Data        tensor.Int8Weights // OutC rows of KP codes, zero-padded beyond K
	Scales      []float32          // per-channel step, len OutC
	RowSum      []int32            // Σ_k Data[oc][k], len OutC
}

// QuantizePerChannel quantizes w (row-major [outC][k]) to int8 with one
// symmetric scale per row, padding rows to kp. Every weight must be
// finite and every resulting scale finite and positive (an all-zero row
// takes scale 1 and codes 0), mirroring the codec's rejection of
// non-finite operating points: a single +Inf weight would otherwise
// poison the whole channel's scale silently.
func QuantizePerChannel(w []float32, outC, k, kp int) (*PerChannel, error) {
	if outC <= 0 || k <= 0 {
		return nil, fmt.Errorf("quant: per-channel shape %d×%d not positive", outC, k)
	}
	if kp < k {
		return nil, fmt.Errorf("quant: kp %d below k %d", kp, k)
	}
	if len(w) < outC*k {
		return nil, fmt.Errorf("quant: weight slice %d shorter than %d×%d", len(w), outC, k)
	}
	pc := &PerChannel{
		OutC:   outC,
		K:      k,
		KP:     kp,
		Scales: make([]float32, outC),
		RowSum: make([]int32, outC),
		Data:   tensor.NewInt8Weights(outC, kp),
	}
	dst := make([]int8, kp) // one row at a time: the tail past k stays 0
	for oc := 0; oc < outC; oc++ {
		row := w[oc*k : (oc+1)*k]
		var maxAbs float32
		for _, v := range row {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return nil, fmt.Errorf("quant: non-finite weight %g in channel %d", v, oc)
			}
			if a := float32(math.Abs(float64(v))); a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		if maxAbs == 0 {
			scale = 1 // all-zero row: codes are all zero, scale is arbitrary
		}
		if math.IsInf(float64(scale), 0) || math.IsNaN(float64(scale)) || scale <= 0 {
			return nil, fmt.Errorf("quant: channel %d scale %g not finite-positive", oc, scale)
		}
		pc.Scales[oc] = scale
		var sum int32
		for i, v := range row {
			q := int8(math.Round(float64(v / scale)))
			dst[i] = q
			sum += int32(q)
		}
		pc.RowSum[oc] = sum
		pc.Data.SetRow(oc, dst)
	}
	return pc, nil
}

// Dequantize reconstructs channel oc's weights (K values, unpadded) into
// dst; used by tests and accuracy analysis.
func (pc *PerChannel) Dequantize(oc int, dst []float32) {
	row := make([]int8, pc.KP)
	pc.Data.Row(oc, row)
	s := pc.Scales[oc]
	for i, q := range row[:pc.K] {
		dst[i] = s * float32(q)
	}
}

// MaxError returns channel oc's worst-case absolute rounding error:
// half its scale.
func (pc *PerChannel) MaxError(oc int) float32 { return pc.Scales[oc] / 2 }

// Affine is a uint8 affine activation quantizer: x ≈ Scale·(q − Zero).
// Level Zero represents exact 0.0, so zero padding and sparsity survive
// quantization.
type Affine struct {
	Scale float32
	Zero  uint8
}

// AffineFor picks affine parameters covering [mn, mx], extended to
// include zero so 0.0 is exactly representable. Non-finite bounds are
// rejected (mirroring the codec's +Inf-range rejection); a degenerate
// all-zero range quantizes everything to level 0 with scale 1.
func AffineFor(mn, mx float32) (Affine, error) {
	if math.IsNaN(float64(mn)) || math.IsNaN(float64(mx)) ||
		math.IsInf(float64(mn), 0) || math.IsInf(float64(mx), 0) {
		return Affine{}, fmt.Errorf("quant: non-finite activation range [%g, %g]", mn, mx)
	}
	if mn > mx {
		return Affine{}, fmt.Errorf("quant: inverted activation range [%g, %g]", mn, mx)
	}
	if mn > 0 {
		mn = 0
	}
	if mx < 0 {
		mx = 0
	}
	scale := (mx - mn) / 255
	if scale == 0 {
		return Affine{Scale: 1, Zero: 0}, nil
	}
	if math.IsInf(float64(scale), 0) {
		return Affine{}, fmt.Errorf("quant: activation range [%g, %g] overflows the affine scale", mn, mx)
	}
	zp := math.Round(float64(-mn) / float64(scale))
	if zp < 0 {
		zp = 0
	}
	if zp > 255 {
		zp = 255
	}
	return Affine{Scale: scale, Zero: uint8(zp)}, nil
}

// InvScale returns 1/Scale, the multiplier the quantizing packers use.
func (a Affine) InvScale() float32 { return 1 / a.Scale }

// MaxError bounds the per-element error for inputs inside the range the
// parameters were derived for: half a step of rounding plus up to half a
// step of zero-point grid shift.
func (a Affine) MaxError() float32 { return a.Scale }
