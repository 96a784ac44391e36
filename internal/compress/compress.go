// Package compress implements ADCNN's Conv-node output compression
// (paper Section 4): the separable blocks end in a clipped ReLU whose
// output lies in [0, b-a] and is highly sparse; those activations are
// quantized to a few bits and run-length encoded before transmission to
// the Central node. This package provides the full tensor → wire-bytes →
// tensor round trip plus the size accounting used by Table 2 and
// Figure 12.
package compress

import (
	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// Pipeline bundles the quantizer configuration used at the Front/Back
// boundary. Range must equal the clipped ReLU's b-a so the quantizer
// covers exactly the activation support.
type Pipeline struct {
	Bits  int
	Range float32
}

// NewPipeline creates a compression pipeline (the paper uses 4 bits).
func NewPipeline(bits int, rng float32) Pipeline {
	_ = quant.New(bits, rng) // validate
	return Pipeline{Bits: bits, Range: rng}
}

// Quantizer returns the pipeline's quantizer.
func (p Pipeline) Quantizer() quant.Quantizer { return quant.New(p.Bits, p.Range) }

// Encode compresses a clipped-ReLU output tensor into a self-describing
// payload: header (shape, range, bits) followed by the RLE stream of
// quantization levels. It runs the fused single-pass codec (see
// EncodeInto); the scalar quantize-then-RLE original is the property
// tests' reference.
func (p Pipeline) Encode(t *tensor.Tensor) ([]byte, error) {
	return p.EncodeInto(nil, t)
}

// Decode reverses Encode, returning the dequantized tensor. It runs the
// fused decoder (see DecodeInto) into a fresh tensor; callers on the hot
// path should call DecodeInto with a reused destination instead.
func Decode(payload []byte) (*tensor.Tensor, error) {
	t := &tensor.Tensor{}
	if err := DecodeInto(t, payload); err != nil {
		return nil, err
	}
	return t, nil
}

// RawSize returns the uncompressed float32 wire size of a tensor in
// bytes, the paper's "before pruning" reference.
func RawSize(t *tensor.Tensor) int { return 4 * t.Len() }

// Ratio returns compressed/raw size for t — Table 2 reports this per
// model (e.g. 0.032× for VGG16).
func (p Pipeline) Ratio(t *tensor.Tensor) float64 {
	return float64(p.EncodedSize(t)) / float64(RawSize(t))
}

// QuantizeInPlace applies the quantizer's rounding to t, which is what
// the modified training graph inserts after the clipped ReLU (forward
// pass only; the backward pass uses the straight-through estimator).
func (p Pipeline) QuantizeInPlace(t *tensor.Tensor) {
	p.Quantizer().Apply(t.Data)
}
