package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// Fused boundary codec: the clip → quantize → RLE pipeline collapsed into
// a single pass over the float32 data, producing byte-identical payloads
// to the scalar reference in the package tests without ever materialising
// the intermediate []uint16 level stream.
//
// Encode runs are classified at the float level: a value quantizes to
// level 0 exactly when it lies below the quantizer's ZeroThreshold, so a
// zero run costs one compare per element and the divide+round only runs
// for the (sparse) literals, whose bits are packed as they are scanned.
// Decode dequantizes literals through a 2^bits lookup table and
// zero-fills runs with memclr-shaped loops straight into the destination
// tensor's (pooled) storage.
//
// The RLE body (little-endian) is a u32 symbol count, a u8 bits-per-level
// byte, then a token stream; each token is a control byte and a uvarint
// run length:
//
//	tokZeroRun — that many zero levels
//	tokLiteral — that many non-zero levels follow, bit-packed LSB first
const (
	tokZeroRun = 0x00
	tokLiteral = 0x01
)

// maxDecodeVolume bounds the tensor volume a payload may declare (2^26
// levels = a 256 MiB float32 tensor, the wire frame limit). A few token
// bytes can otherwise declare a multi-gigabyte zero fill.
const maxDecodeVolume = 1 << 26

// EncodeInto appends the fused encoding of t to dst and returns the
// extended slice (append semantics: dst may be nil, and the result may
// share dst's backing array). The payload is byte-identical to the
// reference pipeline's Encode. The scan performs no allocations beyond
// growing dst, so a caller that recycles a buffer of MaxEncodedSize
// capacity (e.g. from tensor.GetBytes) encodes with zero steady-state
// allocations. t.Data must not contain NaNs — the clipped-ReLU boundary
// never produces them, and run classification assumes ordered compares.
func (p Pipeline) EncodeInto(dst []byte, t *tensor.Tensor) ([]byte, error) {
	if t.Rank() > 255 {
		return nil, fmt.Errorf("compress: rank %d too large", t.Rank())
	}
	q := p.Quantizer() // validates Bits and Range
	var b4 [4]byte
	dst = append(dst, byte(t.Rank()))
	for _, d := range t.Shape {
		binary.LittleEndian.PutUint32(b4[:], uint32(d))
		dst = append(dst, b4[:]...)
	}
	binary.LittleEndian.PutUint32(b4[:], math.Float32bits(p.Range))
	dst = append(dst, b4[:]...)

	// Ensure capacity for the worst-case body once, then emit through a
	// write index into the full-capacity slice: the scan's inner loops do
	// plain indexed stores with no per-byte append grow checks. A caller
	// that pre-sized dst to MaxEncodedSize capacity (the bound below is
	// exactly its body term) never triggers the grow, so the steady-state
	// path performs zero allocations.
	data := t.Data
	runs := len(data)/2 + 1
	need := 5 + runs*2 + runs*(2+(p.Bits+7)/8)
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	buf := dst[:len(dst)+need]
	o := len(dst)

	// RLE body header: symbol count + bits byte.
	binary.LittleEndian.PutUint32(buf[o:], uint32(len(data)))
	buf[o+4] = byte(p.Bits)
	o += 5

	zt := q.ZeroThreshold()
	step := q.Step()
	maxLevel := uint32(q.Levels() - 1)
	bits := p.Bits
	// putToken emits a control byte + uvarint count. Runs in sparse
	// activation maps are short, so the single-byte-count fast path (two
	// stores, no PutUvarint call) carries most tokens.
	putToken := func(o int, tok byte, count int) int {
		if count < 0x80 {
			buf[o] = tok
			buf[o+1] = byte(count)
			return o + 2
		}
		buf[o] = tok
		return o + 1 + binary.PutUvarint(buf[o+1:], uint64(count))
	}
	// Runs strictly alternate, so after classifying the run that starts
	// the tensor each loop iteration handles one literal run followed by
	// one zero run with no re-classification branch: the compare that
	// terminated the previous scan already proved the next run's type.
	i := 0
	if len(data) > 0 && data[0] < zt {
		j := 1
		for j+3 < len(data) && data[j] < zt && data[j+1] < zt && data[j+2] < zt && data[j+3] < zt {
			j += 4
		}
		for j < len(data) && data[j] < zt {
			j++
		}
		o = putToken(o, tokZeroRun, j)
		i = j
	}
	for i < len(data) {
		// Literal run: data[i] >= zt is guaranteed by the scan above.
		j := i + 1
		for j < len(data) && data[j] >= zt {
			j++
		}
		o = putToken(o, tokLiteral, j-i)
		// Quantize and bit-pack the literal run in place, LSB first — the
		// same accumulator discipline (and bytes) as the reference packer.
		// quantize reproduces uint16(math.Round(float64(v/step))) exactly:
		// the quotient is a float32 value in [0.5, 2^16), so adding 0.5 in
		// float64 is exact and truncation equals round-half-away-from-zero.
		quantize := func(v float32) uint32 {
			if v >= p.Range {
				return maxLevel
			}
			return uint32(float64(v/step) + 0.5)
		}
		switch bits {
		case 4:
			// The paper's setting: two levels per output byte.
			k := i
			for ; k+1 < j; k += 2 {
				buf[o] = byte(quantize(data[k]) | quantize(data[k+1])<<4)
				o++
			}
			if k < j {
				buf[o] = byte(quantize(data[k]))
				o++
			}
		case 8:
			for k := i; k < j; k++ {
				buf[o] = byte(quantize(data[k]))
				o++
			}
		default:
			var acc uint32
			var nbits int
			for k := i; k < j; k++ {
				acc |= quantize(data[k]) << nbits
				nbits += bits
				for nbits >= 8 {
					buf[o] = byte(acc)
					o++
					acc >>= 8
					nbits -= 8
				}
			}
			if nbits > 0 {
				buf[o] = byte(acc)
				o++
			}
		}
		i = j
		if i >= len(data) {
			break
		}
		// Zero run: the literal scan above stopped on data[i] < zt. The
		// 4-wide stride amortises loop overhead across the longer runs.
		j = i + 1
		for j+3 < len(data) && data[j] < zt && data[j+1] < zt && data[j+2] < zt && data[j+3] < zt {
			j += 4
		}
		for j < len(data) && data[j] < zt {
			j++
		}
		o = putToken(o, tokZeroRun, j-i)
		i = j
	}
	return buf[:o], nil
}

// MaxEncodedSize bounds len of the payload EncodeInto can append for t:
// the worst case is single-element runs alternating between zeros and
// literals. Sizing a reusable buffer to this bound keeps the encoder from
// ever growing it.
func (p Pipeline) MaxEncodedSize(t *tensor.Tensor) int {
	n := t.Len()
	runs := n/2 + 1
	return 1 + 4*t.Rank() + 4 + 5 + runs*2 + runs*(2+(p.Bits+7)/8)
}

// EncodedSize returns len(Encode(t)) without materialising the payload or
// the level stream: the same run scan as EncodeInto, counting instead of
// emitting.
func (p Pipeline) EncodedSize(t *tensor.Tensor) int {
	q := p.Quantizer()
	zt := q.ZeroThreshold()
	data := t.Data
	size := 1 + 4*t.Rank() + 4 + 5
	i := 0
	for i < len(data) {
		zero := data[i] < zt
		j := i + 1
		for j < len(data) && (data[j] < zt) == zero {
			j++
		}
		size += 1 + uvarintLen(uint64(j-i))
		if !zero {
			size += ((j-i)*p.Bits + 7) / 8
		}
		i = j
	}
	return size
}

// uvarintLen is len(binary.PutUvarint) without the buffer.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// dequantLUT caches the level → float32 table for one (bits, range)
// configuration. Steady state uses a single pipeline, so one atomically
// published entry removes the table build from the hot path entirely.
type dequantLUT struct {
	bits int
	rng  float32
	tab  []float32
}

var lutCache atomic.Pointer[dequantLUT]

// lutMaxBits caps table-based dequantization: above 8 bits the table is
// large enough (and corrupt headers varied enough) that per-level
// arithmetic is the better trade.
const lutMaxBits = 8

func lutFor(bits int, rng float32) []float32 {
	if l := lutCache.Load(); l != nil && l.bits == bits && l.rng == rng {
		return l.tab
	}
	step := quant.New(bits, rng).Step()
	tab := make([]float32, 1<<bits)
	for i := range tab {
		tab[i] = float32(i) * step
	}
	lutCache.Store(&dequantLUT{bits: bits, rng: rng, tab: tab})
	return tab
}

// DecodeInto decodes a fused (or reference — same bytes) payload into
// dst, reshaping it in place. dst must own its storage: when the current
// capacity is too small the old backing array is returned to the tensor
// buffer pool and a pooled replacement is taken, so a caller that feeds
// the same dst tensor repeatedly (or releases it with tensor.PutTensor)
// decodes with zero steady-state allocations. On error dst's contents are
// unspecified but its storage is still valid to reuse or release.
func DecodeInto(dst *tensor.Tensor, payload []byte) error {
	if len(payload) < 1 {
		return errors.New("compress: empty payload")
	}
	rank := int(payload[0])
	need := 1 + 4*rank + 4
	if len(payload) < need {
		return errors.New("compress: truncated header")
	}
	vol := 1
	for i := 0; i < rank; i++ {
		d := int(binary.LittleEndian.Uint32(payload[1+4*i:]))
		vol *= d
		// Reject overflow and absurd volumes before touching memory; no
		// legitimate boundary tensor exceeds the wire frame limit.
		if vol < 0 || vol > maxDecodeVolume {
			return fmt.Errorf("compress: tensor volume exceeds limit")
		}
	}
	rng := math.Float32frombits(binary.LittleEndian.Uint32(payload[1+4*rank:]))
	// Reject NaN and ±Inf outright: an infinite range makes step
	// arithmetic produce NaN (0·Inf), which no encoder-built payload
	// carries — the boundary range is always the finite ClipHi-ClipLo.
	if rng <= 0 || rng != rng || math.IsInf(float64(rng), 0) {
		return fmt.Errorf("compress: corrupt range %v", rng)
	}
	if len(payload) < need+5 {
		return errors.New("compress: missing RLE body")
	}
	total := int(binary.LittleEndian.Uint32(payload[need:]))
	if total != vol {
		return fmt.Errorf("compress: %d levels for volume %d", total, vol)
	}
	bits := int(payload[need+4])
	if bits < 1 || bits > 16 {
		return fmt.Errorf("compress: corrupt bits %d", bits)
	}

	dst.Shape = dst.Shape[:0]
	for i := 0; i < rank; i++ {
		dst.Shape = append(dst.Shape, int(binary.LittleEndian.Uint32(payload[1+4*i:])))
	}
	if cap(dst.Data) < vol {
		tensor.PutBuf(dst.Data)
		dst.Data = tensor.GetBuf(vol)
	}
	dst.Data = dst.Data[:vol]
	return decodeBody(dst.Data, payload[need+5:], bits, rng)
}

// decodeBody walks the RLE token stream, zero-filling runs and
// dequantizing literals directly into out (len(out) = declared total).
func decodeBody(out []float32, body []byte, bits int, rng float32) error {
	step := quant.New(bits, rng).Step()
	var lut []float32
	if bits <= lutMaxBits {
		lut = lutFor(bits, rng)
	}
	mask := uint32(1<<bits - 1)
	// One memclr for the whole tensor up front. Runs in sparse activation
	// maps are short (a handful of elements at the paper's 0.8 sparsity),
	// so per-token zero fills would pay the memclr call overhead thousands
	// of times per tile; a single bulk clear turns every zero-run token
	// into a pure cursor advance.
	for i := range out {
		out[i] = 0
	}
	pos, w := 0, 0
	for w < len(out) {
		if pos+1 >= len(body) {
			return errors.New("compress: truncated token stream")
		}
		tok := body[pos]
		// Inline the uvarint fast path: short runs dominate, and their
		// counts fit one byte.
		var count uint64
		if b := body[pos+1]; b < 0x80 {
			count = uint64(b)
			pos += 2
		} else {
			c64, n := binary.Uvarint(body[pos+1:])
			if n <= 0 {
				return errors.New("compress: bad run length")
			}
			count = c64
			pos += 1 + n
		}
		if count > uint64(len(out)-w) {
			return errors.New("compress: run overflows declared length")
		}
		c := int(count)
		switch tok {
		case tokZeroRun:
			w += c // already cleared by the bulk memclr
		case tokLiteral:
			needB := (c*bits + 7) / 8
			if pos+needB > len(body) {
				return errors.New("compress: truncated literal run")
			}
			data := body[pos : pos+needB]
			switch {
			case bits == 4 && lut != nil:
				// The paper's setting: two levels per byte, no accumulator.
				lo := lut[:16]
				for k := 0; k+1 < c; k += 2 {
					b := data[k>>1]
					out[w] = lo[b&15]
					out[w+1] = lo[b>>4]
					w += 2
				}
				if c&1 == 1 {
					out[w] = lo[data[c>>1]&15]
					w++
				}
			case bits == 8 && lut != nil:
				lo := lut[:256]
				for k := 0; k < c; k++ {
					out[w] = lo[data[k]]
					w++
				}
			case lut != nil:
				var acc uint32
				var nb, di int
				for k := 0; k < c; k++ {
					for nb < bits {
						acc |= uint32(data[di]) << nb
						di++
						nb += 8
					}
					out[w] = lut[acc&mask]
					w++
					acc >>= bits
					nb -= bits
				}
			default:
				var acc uint32
				var nb, di int
				for k := 0; k < c; k++ {
					for nb < bits {
						acc |= uint32(data[di]) << nb
						di++
						nb += 8
					}
					out[w] = float32(acc&mask) * step
					w++
					acc >>= bits
					nb -= bits
				}
			}
			pos += needB
		default:
			return fmt.Errorf("compress: unknown token %#x", tok)
		}
	}
	return nil
}
