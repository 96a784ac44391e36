package tensor

import "encoding/binary"

// Quantized im2col. The int8 conv forward consumes activations as uint8
// affine levels q = clamp(round(x/scale) + zp, 0, 255), packed in the
// transposed column layout the int8 GEMM expects: row j = output pixel
// oy·OW+ox, column k = (ch·KH+kh)·KW+kw, rows padded from k to kp.
//
// The packers build that matrix in two stages instead of a per-element
// gather: the float image is quantized ONCE with the SIMD quantizer into
// a plane bordered with the padding level, and the gather then moves
// contiguous kw-runs — within one (ch, kh) segment consecutive kw values
// map to consecutive source bytes regardless of stride — with no edge
// cases, since every window lies inside the bordered plane. A
// levels-native entry point packs decoded wire uint8 levels straight
// into the layout with no float detour, which is how the Conv worker
// skips the dequant→f32→requant round trip.

// QuantizeAffine maps x to its uint8 affine level with invScale = 1/scale
// and zpF = float32(zero point): clamp(round(x·invScale + zp), 0, 255),
// rounding half away from zero toward +∞ after the shift. It is the
// canonical scalar quantizer; the slice and im2col packers reproduce it
// bit-exactly.
func QuantizeAffine(x, invScale, zpF float32) uint8 {
	v := x*invScale + zpF
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// QuantizeAffineSlice quantizes src into dst element-wise, bit-exact
// with QuantizeAffine. The bulk runs on the widest vector kernel the
// host provides (32 levels per AVX2 step, 16 per AVX-512 step); only
// the sub-register tail is scalar.
func QuantizeAffineSlice(dst []uint8, src []float32, invScale float32, zp uint8) {
	zpF := float32(zp)
	dst = dst[:len(src)]
	i := quantizeAffineSIMD(dst, src, invScale, zpF)
	for ; i < len(src); i++ {
		dst[i] = QuantizeAffine(src[i], invScale, zpF)
	}
}

// DequantizeAffineSlice reverses QuantizeAffineSlice up to rounding:
// dst[i] = scale·(src[i]−zp).
func DequantizeAffineSlice(dst []float32, src []uint8, scale float32, zp uint8) {
	z := int32(zp)
	dst = dst[:len(src)]
	for i, q := range src {
		dst[i] = scale * float32(int32(q)-z)
	}
}

// MinMax scans xs and returns its minimum and maximum. An empty slice
// returns (0, 0); a NaN anywhere in xs poisons both bounds (the first
// NaN is returned for both), so callers can reject non-finite inputs by
// checking the result. Of several elements equal to a bound — +0 and −0
// — the first is returned. The bulk is scanned by a vector kernel where
// the host has one, so the bits never depend on the kernel: a NaN in
// the bulk hands the whole scan to minMaxScalar, and a bound of zero is
// the first zero element.
func MinMax(xs []float32) (mn, mx float32) {
	mn, mx, n, nan := minMaxSIMD(xs)
	if n == 0 || nan {
		return minMaxScalar(xs)
	}
	for _, v := range xs[n:] {
		if v != v {
			return v, v
		}
		mn, mx = min(mn, v), max(mx, v)
	}
	if mn == 0 {
		mn = firstZero(xs)
	}
	if mx == 0 {
		mx = firstZero(xs)
	}
	return mn, mx
}

// firstZero returns the first element of xs equal to zero, +0 or −0.
func firstZero(xs []float32) float32 {
	for _, v := range xs {
		if v == 0 {
			return v
		}
	}
	return 0
}

// minMaxScalar is MinMax as one in-order scan: NaN is checked
// explicitly before the ordered comparisons, which are always false
// against NaN and would otherwise drop one silently, and a bound only
// moves on a strictly smaller or larger element.
func minMaxScalar(xs []float32) (mn, mx float32) {
	if len(xs) == 0 {
		return 0, 0
	}
	mn, mx = xs[0], xs[0]
	if mn != mn {
		return mn, mn
	}
	for _, v := range xs[1:] {
		if v != v { // NaN poisons both bounds
			return v, v
		}
		if v < mn {
			mn = v
		} else if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// Im2ColQuantSlice gathers one C×H×W float32 image into the quantized
// transposed column matrix dst[OH·OW][kp], applying QuantizeAffine to
// every element. Spatial padding positions take the level zp (the affine
// image of 0.0) and the kp tail of each row is zero-filled, so dst is
// fully defined on return and pooled buffers are safe destinations.
//
// The image is quantized once, row by row with the SIMD quantizer,
// straight into a bordered plane (see borderedU8) and then gathered —
// bit-exact with a per-element gather (the property tests' oracle)
// because the quantizer is deterministic per element. Zero allocations
// at pool steady state.
func Im2ColQuantSlice(dst []uint8, src []float32, c, h, w int, g ConvGeom, invScale float32, zp uint8, kp int) {
	if kp < c*g.KH*g.KW {
		panic("tensor: Im2ColQuantSlice kp below C·KH·KW")
	}
	bp := newBorderedU8(c, h, w, g, zp)
	src = src[:c*h*w]
	if g.PadH == 0 && g.PadW == 0 { // the rows are contiguous
		QuantizeAffineSlice(bp.buf[:len(src)], src, invScale, zp)
	} else {
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				QuantizeAffineSlice(bp.row(ch, y), src[(ch*h+y)*w:][:w], invScale, zp)
			}
		}
	}
	bp.gather(dst, c, g, kp)
	PutBytes(bp.buf)
}

// Im2ColU8Slice is Im2ColQuantSlice for an image that is already uint8
// levels: the rows are copied into a bordered plane whose border reads
// as pad (the level representing 0.0 under the source's affine
// parameters) and gathered from there.
func Im2ColU8Slice(dst, src []uint8, c, h, w int, g ConvGeom, pad uint8, kp int) {
	if kp < c*g.KH*g.KW {
		panic("tensor: Im2ColU8Slice kp below C·KH·KW")
	}
	bp := newBorderedU8(c, h, w, g, pad)
	src = src[:c*h*w]
	if g.PadH == 0 && g.PadW == 0 {
		copy(bp.buf, src)
	} else {
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				copy(bp.row(ch, y), src[(ch*h+y)*w:][:w])
			}
		}
	}
	bp.gather(dst, c, g, kp)
	PutBytes(bp.buf)
}

// borderedU8 is a C×H×W level image laid out with its spatial padding
// materialised: each channel is an (H+2·PadH)×(W+2·PadW) plane whose
// border holds the pad level, followed by 8 bytes of slack. Every
// kernel window then lies inside the buffer, so the gather never clips,
// and an 8-byte read starting in any window stays inside it too.
type borderedU8 struct {
	buf          []uint8 // pooled; release with PutBytes
	h, w, hp, wp int
	padH, padW   int
}

// newBorderedU8 returns the bordered buffer for a c×h×w image with the
// border and slack set to pad and the interior rows unspecified.
func newBorderedU8(c, h, w int, g ConvGeom, pad uint8) borderedU8 {
	b := borderedU8{h: h, w: w, hp: h + 2*g.PadH, wp: w + 2*g.PadW, padH: g.PadH, padW: g.PadW}
	plane := b.hp * b.wp
	b.buf = GetBytes(c*plane + 8)
	for ch := 0; ch < c; ch++ {
		p := b.buf[ch*plane : (ch+1)*plane]
		fillU8(p[:b.padH*b.wp+b.padW], pad)
		for y := 1; y < h; y++ { // right border of row y-1, left of row y
			fillU8(p[(b.padH+y)*b.wp-b.padW:][:2*b.padW], pad)
		}
		fillU8(p[(b.padH+h)*b.wp-b.padW:], pad)
	}
	fillU8(b.buf[c*plane:], pad)
	return b
}

// row returns the interior of source row y of channel ch.
func (b borderedU8) row(ch, y int) []uint8 {
	return b.buf[(ch*b.hp+b.padH+y)*b.wp+b.padW:][:b.w]
}

// gather packs the bordered image into dst[OH·OW][kp]. For each output
// row and each (ch, kh) segment it sweeps every output pixel with a
// tight strided store loop: 3×3 kernels write a channel's nine bytes
// as one word and one byte from three source words, kernels up to 8
// wide move one word per segment (the overhang lands on bytes a later
// segment or the zeroed kp tail overwrites). 3×3 and 1-wide kernels
// sweep the channels of one output pixel instead, so their stores run
// along the destination row: a 1-wide window is a byte per (ch, kh).
func (b borderedU8) gather(dst []uint8, c int, g ConvGeom, kp int) {
	oh, ow := g.OutSize(b.h, b.w)
	k := c * g.KH * g.KW
	dst = dst[:oh*ow*kp]
	src := b.buf
	plane := b.hp * b.wp
	for oy := 0; oy < oh; oy++ {
		iy0 := oy * g.StrideH
		d0 := oy * ow * kp
		dEnd := d0 + ow*kp
		switch {
		case g.KH == 3 && g.KW == 3:
			for ox := 0; ox < ow; ox++ {
				gather3x3(dst[d0+ox*kp:][:9*c], src, iy0*b.wp+ox*g.StrideW, b.wp, plane)
			}
		case g.KH == 1 && g.KW == 1:
			ox := 0
			if g.StrideW <= 2 && ow >= 8 {
				// The last block ends at the last pixel, rewriting
				// some of its predecessor's with the same bytes.
				for ; ox < ow; ox += 8 {
					ox = min(ox, ow-8)
					gather1x1Block(dst[d0+ox*kp:], src, iy0*b.wp+ox*g.StrideW, c, kp, plane, g.StrideW)
				}
			}
			for ; ox < ow; ox++ {
				s := iy0*b.wp + ox*g.StrideW
				for ch := range dst[d0+ox*kp:][:c] {
					dst[d0+ox*kp+ch] = src[s+ch*plane]
				}
			}
		default:
			for ch := 0; ch < c; ch++ {
				for kh := 0; kh < g.KH; kh++ {
					ki := (ch*g.KH + kh) * g.KW
					srow := src[ch*plane+(iy0+kh)*b.wp:]
					s := 0
					if g.KW <= 8 && ki+8 <= kp {
						for d := d0 + ki; d < dEnd; d += kp {
							binary.LittleEndian.PutUint64(dst[d:], binary.LittleEndian.Uint64(srow[s:]))
							s += g.StrideW
						}
						continue
					}
					for d := d0 + ki; d < dEnd; d += kp {
						copy(dst[d:d+g.KW], srow[s:])
						s += g.StrideW
					}
				}
			}
		}
		for d := d0; d < dEnd; d += kp {
			clear(dst[d+k : d+kp])
		}
	}
}

// gather3x3Generic writes one output pixel's 3×3 windows, nine bytes
// per channel: the window of channel ch is the 3-byte runs at s+ch·plane
// in three source rows wp apart, read as three words, stored as one word
// and one byte. gather3x3 is this loop in assembly where there is one.
func gather3x3Generic(row, src []uint8, s, wp, plane int) {
	for d := 0; d+9 <= len(row); d += 9 {
		w0 := binary.LittleEndian.Uint64(src[s:])
		w1 := binary.LittleEndian.Uint64(src[s+wp:])
		w2 := binary.LittleEndian.Uint64(src[s+2*wp:])
		binary.LittleEndian.PutUint64(row[d:], w0&0xFFFFFF|(w1&0xFFFFFF)<<24|w2<<48)
		row[d+8] = byte(w2 >> 16)
		s += plane
	}
}

// gather1x1Block writes the 1×1 windows of eight consecutive output
// pixels, which is a byte transpose: for each group of eight channels,
// one word per channel holds the eight pixels (every stride-th byte from
// s+ch·plane), and an 8×8 transpose of those words gives one word per
// pixel, stored at dst[p·kp+ch]. Channels past the last full group are
// moved a byte at a time.
func gather1x1Block(dst, src []uint8, s, c, kp, plane, stride int) {
	ch := 0
	for ; ch+8 <= c; ch += 8 {
		si := s + ch*plane
		x0 := load8Strided(src, si, stride)
		x1 := load8Strided(src, si+plane, stride)
		x2 := load8Strided(src, si+2*plane, stride)
		x3 := load8Strided(src, si+3*plane, stride)
		x4 := load8Strided(src, si+4*plane, stride)
		x5 := load8Strided(src, si+5*plane, stride)
		x6 := load8Strided(src, si+6*plane, stride)
		x7 := load8Strided(src, si+7*plane, stride)
		x0, x1 = swapBlocks(x0, x1, 8, 0x00FF00FF00FF00FF)
		x2, x3 = swapBlocks(x2, x3, 8, 0x00FF00FF00FF00FF)
		x4, x5 = swapBlocks(x4, x5, 8, 0x00FF00FF00FF00FF)
		x6, x7 = swapBlocks(x6, x7, 8, 0x00FF00FF00FF00FF)
		x0, x2 = swapBlocks(x0, x2, 16, 0x0000FFFF0000FFFF)
		x1, x3 = swapBlocks(x1, x3, 16, 0x0000FFFF0000FFFF)
		x4, x6 = swapBlocks(x4, x6, 16, 0x0000FFFF0000FFFF)
		x5, x7 = swapBlocks(x5, x7, 16, 0x0000FFFF0000FFFF)
		x0, x4 = swapBlocks(x0, x4, 32, 0x00000000FFFFFFFF)
		x1, x5 = swapBlocks(x1, x5, 32, 0x00000000FFFFFFFF)
		x2, x6 = swapBlocks(x2, x6, 32, 0x00000000FFFFFFFF)
		x3, x7 = swapBlocks(x3, x7, 32, 0x00000000FFFFFFFF)
		d := dst[ch:]
		binary.LittleEndian.PutUint64(d, x0)
		binary.LittleEndian.PutUint64(d[kp:], x1)
		binary.LittleEndian.PutUint64(d[2*kp:], x2)
		binary.LittleEndian.PutUint64(d[3*kp:], x3)
		binary.LittleEndian.PutUint64(d[4*kp:], x4)
		binary.LittleEndian.PutUint64(d[5*kp:], x5)
		binary.LittleEndian.PutUint64(d[6*kp:], x6)
		binary.LittleEndian.PutUint64(d[7*kp:], x7)
	}
	for ; ch < c; ch++ {
		for p := 0; p < 8; p++ {
			dst[p*kp+ch] = src[s+ch*plane+p*stride]
		}
	}
}

// swapBlocks is one stage of a word-wise transpose: the odd bits-wide
// blocks of a (those mask selects after a shift) trade places with the
// even blocks of b.
func swapBlocks(a, b uint64, bits uint, mask uint64) (uint64, uint64) {
	t := (a>>bits ^ b) & mask
	return a ^ t<<bits, b ^ t
}

// load8Strided returns bytes s, s+stride, …, s+7·stride of src as one
// word, for a stride of 1 or 2.
func load8Strided(src []uint8, s, stride int) uint64 {
	w := binary.LittleEndian.Uint64(src[s:])
	if stride == 1 {
		return w
	}
	return evenBytes(w) | evenBytes(binary.LittleEndian.Uint64(src[s+8:]))<<32
}

// evenBytes packs bytes 0, 2, 4 and 6 of w into its low four bytes.
func evenBytes(w uint64) uint64 {
	w &= 0x00FF00FF00FF00FF
	w = (w | w>>8) & 0x0000FFFF0000FFFF
	return (w | w>>16) & 0x00000000FFFFFFFF
}

// fillU8 sets every byte of s to v (the compiler lowers the loop to a
// memset-style fill for v==0 and a tight store loop otherwise).
func fillU8(s []uint8, v uint8) {
	for i := range s {
		s[i] = v
	}
}
