package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// The scalar reference for the boundary codec: the original
// quantize-the-whole-tensor-then-RLE pipeline, which materialises the
// []uint16 level stream the fused codec (fused.go) never builds. The
// property and fuzz tests pin the fused codec to it, byte for byte on
// encode and value for value on decode. It allocates freely.

// refEncode is the reference for Pipeline.Encode/EncodeInto.
func (p Pipeline) refEncode(t *tensor.Tensor) ([]byte, error) {
	if t.Rank() > 255 {
		return nil, fmt.Errorf("compress: rank %d too large", t.Rank())
	}
	stream, err := rleEncode(p.refLevels(t), p.Bits)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, 1+4*t.Rank()+4)
	hdr = append(hdr, byte(t.Rank()))
	var b4 [4]byte
	for _, d := range t.Shape {
		binary.LittleEndian.PutUint32(b4[:], uint32(d))
		hdr = append(hdr, b4[:]...)
	}
	binary.LittleEndian.PutUint32(b4[:], math.Float32bits(p.Range))
	hdr = append(hdr, b4[:]...)
	return append(hdr, stream...), nil
}

// refLevels quantizes every element of t into a level index.
func (p Pipeline) refLevels(t *tensor.Tensor) []uint16 {
	q := p.Quantizer()
	levels := make([]uint16, len(t.Data))
	for i, v := range t.Data {
		levels[i] = q.Encode(v)
	}
	return levels
}

// refDecode is the reference for Decode/DecodeInto: rleDecode to a level
// stream, then a dequantization pass.
func refDecode(payload []byte) (*tensor.Tensor, error) {
	if len(payload) < 1 {
		return nil, errors.New("compress: empty payload")
	}
	rank := int(payload[0])
	need := 1 + 4*rank + 4
	if len(payload) < need {
		return nil, errors.New("compress: truncated header")
	}
	shape := make([]int, rank)
	for i := 0; i < rank; i++ {
		shape[i] = int(binary.LittleEndian.Uint32(payload[1+4*i:]))
	}
	rng := math.Float32frombits(binary.LittleEndian.Uint32(payload[1+4*rank:]))
	if rng <= 0 || rng != rng { // NaN check
		return nil, fmt.Errorf("compress: corrupt range %v", rng)
	}
	levels, err := rleDecode(payload[need:])
	if err != nil {
		return nil, err
	}
	if len(levels) != tensor.Volume(shape) {
		return nil, fmt.Errorf("compress: %d levels for shape %v", len(levels), shape)
	}
	q := quant.New(int(payload[need+4]), rng) // rleDecode checked the bits byte
	vals := make([]float32, len(levels))
	for i, l := range levels {
		vals[i] = q.Decode(l)
	}
	return tensor.FromSlice(vals, shape...), nil
}

// refEncodedSize is the reference for Pipeline.EncodedSize: it quantizes
// the whole tensor into a throwaway level slice just to measure it.
func (p Pipeline) refEncodedSize(t *tensor.Tensor) int {
	return 1 + 4*t.Rank() + 4 + rleCompressedSize(p.refLevels(t), p.Bits)
}

// rleEncode is the reference run-length encoder of a level stream, in
// the body format fused.go documents: u32 symbol count, u8 bits, then
// zero-run and literal-run tokens. Levels wider than bits are rejected.
func rleEncode(levels []uint16, bits int) ([]byte, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("rle: bits %d out of [1,16]", bits)
	}
	maxLevel := uint16(1<<bits - 1)
	out := make([]byte, 0, len(levels)/2+16)
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(levels)))
	hdr[4] = byte(bits)
	out = append(out, hdr[:]...)

	i := 0
	var tmp [binary.MaxVarintLen64]byte
	for i < len(levels) {
		if levels[i] == 0 {
			j := i
			for j < len(levels) && levels[j] == 0 {
				j++
			}
			out = append(out, tokZeroRun)
			n := binary.PutUvarint(tmp[:], uint64(j-i))
			out = append(out, tmp[:n]...)
			i = j
			continue
		}
		j := i
		for j < len(levels) && levels[j] != 0 {
			if levels[j] > maxLevel {
				return nil, fmt.Errorf("rle: level %d exceeds %d-bit width", levels[j], bits)
			}
			j++
		}
		out = append(out, tokLiteral)
		n := binary.PutUvarint(tmp[:], uint64(j-i))
		out = append(out, tmp[:n]...)
		out = appendPacked(out, levels[i:j], bits)
		i = j
	}
	return out, nil
}

// appendPacked bit-packs levels (each `bits` wide) onto out, LSB first.
func appendPacked(out []byte, levels []uint16, bits int) []byte {
	var acc uint32
	var nbits int
	for _, l := range levels {
		acc |= uint32(l) << nbits
		nbits += bits
		for nbits >= 8 {
			out = append(out, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		out = append(out, byte(acc))
	}
	return out
}

// rleDecode reverses rleEncode, returning the original level stream.
func rleDecode(data []byte) ([]uint16, error) {
	if len(data) < 5 {
		return nil, errors.New("rle: truncated header")
	}
	total := int(binary.LittleEndian.Uint32(data[:4]))
	if total > maxDecodeVolume {
		return nil, fmt.Errorf("rle: declared length %d exceeds limit %d", total, maxDecodeVolume)
	}
	bits := int(data[4])
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("rle: corrupt bits field %d", bits)
	}
	pos := 5
	out := make([]uint16, 0, total)
	for len(out) < total {
		if pos >= len(data) {
			return nil, errors.New("rle: truncated token stream")
		}
		tok := data[pos]
		pos++
		count, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, errors.New("rle: bad run length")
		}
		pos += n
		// Compare in uint64: a 10-byte varint can declare a count that
		// wraps negative as an int and would sail past an int compare.
		if count > uint64(total-len(out)) {
			return nil, errors.New("rle: run overflows declared length")
		}
		switch tok {
		case tokZeroRun:
			for k := uint64(0); k < count; k++ {
				out = append(out, 0)
			}
		case tokLiteral:
			need := (int(count)*bits + 7) / 8
			if pos+need > len(data) {
				return nil, errors.New("rle: truncated literal run")
			}
			out = appendUnpacked(out, data[pos:pos+need], int(count), bits)
			pos += need
		default:
			return nil, fmt.Errorf("rle: unknown token %#x", tok)
		}
	}
	return out, nil
}

// appendUnpacked reverses appendPacked for count levels.
func appendUnpacked(out []uint16, data []byte, count, bits int) []uint16 {
	var acc uint32
	var nbits, di int
	mask := uint32(1<<bits - 1)
	for k := 0; k < count; k++ {
		for nbits < bits {
			acc |= uint32(data[di]) << nbits
			di++
			nbits += 8
		}
		out = append(out, uint16(acc&mask))
		acc >>= bits
		nbits -= bits
	}
	return out
}

// rleCompressedSize returns what rleEncode would produce in bytes without
// building the buffer.
func rleCompressedSize(levels []uint16, bits int) int {
	size := 5
	var tmp [binary.MaxVarintLen64]byte
	i := 0
	for i < len(levels) {
		zero := levels[i] == 0
		j := i
		for j < len(levels) && (levels[j] == 0) == zero {
			j++
		}
		size += 1 + binary.PutUvarint(tmp[:], uint64(j-i))
		if !zero {
			size += ((j-i)*bits + 7) / 8
		}
		i = j
	}
	return size
}
