package core

// Quantized tensor encoding for the int8 operating mode's uplink: a task
// tile travels as uint8 affine levels plus the (scale, zero-point) pair
// that defines them — 4× smaller than the float32 encoding, and directly
// consumable by the Conv worker's int8 GEMM without a dequant→f32→requant
// round trip on the boundary tensor.
//
// Layout: rank(1) | dims(4·rank, u32 LE) | scale(4, f32 LE) | zero(1) |
// levels(Π dims). A frame carrying this encoding sets flagQuantized.

import (
	"encoding/binary"
	"fmt"
	"math"

	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// QuantTile is a decoded quantized tensor payload: shape, the affine that
// maps levels back to values (x ≈ Scale·(q − Zero)), and the raw levels.
// Levels is backed by a pooled wire buffer when decoded with
// DecodeQuantTensorInto — call Release (or keep reusing the struct) when
// done.
type QuantTile struct {
	Shape  []int
	Affine quant.Affine
	Levels []uint8
}

// Release returns the levels storage to the wire buffer pool.
func (q *QuantTile) Release() {
	tensor.PutBytes(q.Levels)
	q.Levels = nil
}

// QuantTensorWireSize is the exact byte length AppendQuantTensor produces
// for t, so callers can pre-size a pooled buffer.
func QuantTensorWireSize(t *tensor.Tensor) int { return 1 + 4*t.Rank() + 5 + t.Len() }

// AppendQuantTensor quantizes t with af and appends the encoding onto
// dst, returning the extended slice. When dst has QuantTensorWireSize
// spare capacity no allocation occurs.
func AppendQuantTensor(dst []byte, t *tensor.Tensor, af quant.Affine) []byte {
	off := len(dst)
	need := QuantTensorWireSize(t)
	if cap(dst) < off+need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	dst[off] = byte(t.Rank())
	p := off + 1
	for _, d := range t.Shape {
		binary.LittleEndian.PutUint32(dst[p:], uint32(d))
		p += 4
	}
	binary.LittleEndian.PutUint32(dst[p:], math.Float32bits(af.Scale))
	p += 4
	dst[p] = af.Zero
	p++
	tensor.QuantizeAffineSlice(dst[p:], t.Data, af.InvScale(), af.Zero)
	return dst
}

// parseQuantTensor validates an AppendQuantTensor payload and splits it
// into its parts: the shape (appended onto shape[:0]), the affine, and
// the levels, which alias data.
func parseQuantTensor(shape []int, data []byte) ([]int, quant.Affine, []byte, error) {
	shape, vol, off, err := parseShape(shape, data, 5, maxFrame, "quantized tensor")
	if err != nil {
		return nil, quant.Affine{}, nil, err
	}
	scale := math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
	zero := data[off+4]
	off += 5
	if scale <= 0 || math.IsInf(float64(scale), 0) || math.IsNaN(float64(scale)) {
		return nil, quant.Affine{}, nil, fmt.Errorf("core: quantized tensor scale %g out of range", scale)
	}
	if len(data) != off+vol {
		return nil, quant.Affine{}, nil, fmt.Errorf("core: quantized tensor payload %d bytes, want %d", len(data), off+vol)
	}
	return shape, quant.Affine{Scale: scale, Zero: zero}, data[off:], nil
}

// DecodeQuantTensorInto decodes an AppendQuantTensor payload into dst,
// reusing the capacity of dst.Shape and dst.Levels (a too-small levels
// buffer is swapped for one from the wire buffer pool), so a recycled
// destination decodes with zero steady-state allocations. The payload
// bytes are fully copied out — the caller may release the wire buffer
// immediately after this returns.
func DecodeQuantTensorInto(dst *QuantTile, data []byte) error {
	shape, af, levels, err := parseQuantTensor(dst.Shape, data)
	if err != nil {
		return err
	}
	dst.Shape, dst.Affine = shape, af
	dst.Levels = growBytes(dst.Levels, len(levels))[:len(levels)]
	copy(dst.Levels, levels)
	return nil
}

// DequantizeQuantTensorInto decodes an AppendQuantTensor payload
// straight into a float32 tensor: one fused pass dequantizes the wire
// levels into pooled dst storage, with no intermediate QuantTile and no
// levels copy — the downlink counterpart of the worker's levels-native
// uplink. The payload is fully consumed before returning, so the caller
// may release the wire buffer immediately. Same validation as
// DecodeQuantTensorInto.
func DequantizeQuantTensorInto(dst *tensor.Tensor, data []byte) error {
	shape, af, levels, err := parseQuantTensor(dst.Shape, data)
	if err != nil {
		return err
	}
	dst.Shape = shape
	growData(dst, len(levels))
	tensor.DequantizeAffineSlice(dst.Data, levels, af.Scale, af.Zero)
	return nil
}

// DequantizeInto expands the tile to float32 into dst, reshaping it in
// place with pooled storage like DecodeTensorInto — the fallback for a
// worker whose model cannot consume levels directly.
func (q *QuantTile) DequantizeInto(dst *tensor.Tensor) {
	dst.Shape = append(dst.Shape[:0], q.Shape...)
	growData(dst, len(q.Levels))
	tensor.DequantizeAffineSlice(dst.Data, q.Levels, q.Affine.Scale, q.Affine.Zero)
}
