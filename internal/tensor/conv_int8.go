package tensor

import "unsafe"

// Implicit int8 convolution. A convolution whose input channels come in
// whole 64-byte k steps runs the int8 engines on the sample itself
// rather than on a quantized im2col matrix: the sample is quantized once
// into a channels-last (HWC) copy laid out by ConvInto's plan — the
// zero-bordered image, or its phase planes at stride 2, with the border
// at the zero point — and the engines read B in place. Column j of the
// product is pixel j of a phase plane, InC bytes on from pixel j−1, and
// k step q, one (kh, kw, 64-channel chunk) in that order, sits at the
// offset its tap's first pixel and chunk give it. The weights hold their
// codes in the same (kh, kw, c) order (NewInt8ConvWeights). Each output
// is the same exact int32 sum as the im2col route's, so the two agree
// bit for bit.

// ConvInt8Channels reports whether ConvInt8Into takes c input channels:
// a positive multiple of 64, so every k step is one tap's run of 64.
func ConvInt8Channels(c int) bool { return c > 0 && c%int8KStep == 0 }

// convInt8Scratch is where ConvInt8Into keeps its parts in a scratch of
// total bytes: the HWC phase planes (hwc bytes) first, so every k step
// of a column starts on a cache line, then from byte at the
// bordered-width output (wide floats, none when the plane has no junk
// columns), the offset table (steps int32s) and the sample's levels
// (levels bytes).
type convInt8Scratch struct {
	hwc, at, wide, steps, levels, total int
}

func (p convPlan) int8Scratch(c, h, w, outC, taps int) convInt8Scratch {
	s := convInt8Scratch{hwc: p.pa * p.pb * p.hq * p.wq * c, wide: p.wide(outC),
		steps: taps * c / int8KStep, levels: c * h * w}
	s.at = (s.hwc + 63) &^ 63
	s.total = (s.at + 4*(s.wide+s.steps) + s.levels + 63) &^ 63
	return s
}

// parts returns s's parts of scratch.
func (s convInt8Scratch) parts(scratch []uint8) (hwc []uint8, wide []float32, boff []int32, levels []uint8) {
	rest := scratch[s.at:s.total]
	wide = unsafe.Slice((*float32)(unsafe.Pointer(&rest[0])), s.wide)
	boff = unsafe.Slice((*int32)(unsafe.Pointer(&rest[4*s.wide])), s.steps)
	return scratch[:s.hwc], wide, boff, rest[4*(s.wide+s.steps):][:s.levels]
}

// ConvInt8ScratchLen returns how many bytes of scratch ConvInt8Into and
// ConvInt8LevelsInto take for a c×h×w sample and outC outputs: a
// multiple of 64, so what a caller keeps after it stays aligned. The
// kernels read fastest from a scratch that starts on a cache line, as
// the tensor pool's buffers do.
func (g ConvGeom) ConvInt8ScratchLen(c, h, w, outC int) int {
	p := g.plan(h, w)
	if p.oh <= 0 || p.ow <= 0 {
		return 0
	}
	return p.int8Scratch(c, h, w, outC, g.KH*g.KW).total
}

// ConvInt8Into computes one sample of an int8 inference convolution: x
// is a c×h×w image, quantized as QuantizeAffineSlice does with the
// scale 1/rq.XScale and the zero point rq.XZero; wt the outC filters
// from NewInt8ConvWeights(outC, c, KH·KW); y receives the [outC, OH·OW]
// planes that Im2ColQuantSlice followed by GemmInt8RequantInto with the
// same filters in im2col order and rq would give, bit for bit, rq.Skip
// laid out like y. c must satisfy ConvInt8Channels. scratch holds
// ConvInt8ScratchLen(c, h, w, outC) bytes with any contents.
func ConvInt8Into(y, x []float32, c, h, w int, g ConvGeom, wt *Int8Weights, rq Int8Requant, scratch []uint8) {
	p, s := g.checkInt8(y, len(x), c, h, w, wt, rq, scratch)
	if p.oh <= 0 || p.ow <= 0 || wt.M == 0 {
		return
	}
	_, _, _, levels := s.parts(scratch)
	QuantizeAffineSlice(levels, x[:s.levels], 1/rq.XScale, uint8(rq.XZero))
	g.convInt8(y, levels, c, h, w, p, s, wt, rq, scratch)
}

// ConvInt8LevelsInto is ConvInt8Into for a sample that is already
// uint8 levels under rq's activation scale and zero point.
func ConvInt8LevelsInto(y []float32, levels []uint8, c, h, w int, g ConvGeom, wt *Int8Weights, rq Int8Requant, scratch []uint8) {
	p, s := g.checkInt8(y, len(levels), c, h, w, wt, rq, scratch)
	if p.oh <= 0 || p.ow <= 0 || wt.M == 0 {
		return
	}
	g.convInt8(y, levels[:s.levels], c, h, w, p, s, wt, rq, scratch)
}

// checkInt8 panics unless the operands of an implicit int8 convolution
// cover their shapes, and returns its plan and scratch layout.
func (g ConvGeom) checkInt8(y []float32, xLen, c, h, w int, wt *Int8Weights, rq Int8Requant, scratch []uint8) (convPlan, convInt8Scratch) {
	taps := g.KH * g.KW
	if !ConvInt8Channels(c) || wt.KP != c*taps || taps > 1 && wt.taps != taps || rq.XZero < 0 || rq.XZero > 255 {
		panic("tensor: ConvInt8Into takes 64·n channels, weights from NewInt8ConvWeights and a uint8 zero point")
	}
	p := g.plan(h, w)
	outC, plane := wt.M, max(p.oh, 0)*max(p.ow, 0)
	s := p.int8Scratch(c, h, w, outC, taps)
	if len(y) < outC*plane || xLen < c*h*w || len(rq.WScale) < outC || len(rq.RowSum) < outC ||
		!rq.fits(outC, plane, plane) || plane > 0 && len(scratch) < s.total {
		panic("tensor: ConvInt8Into operand shorter than its shape")
	}
	return p, s
}

// convInt8 lays the levels out as HWC phase planes, builds the offset
// table and runs the product, on the bordered width when the plane has
// junk columns.
func (g ConvGeom) convInt8(y []float32, levels []uint8, c, h, w int, p convPlan, s convInt8Scratch, wt *Int8Weights, rq Int8Requant, scratch []uint8) {
	hwc, wide, boff, _ := s.parts(scratch)
	fillPhasesHWC(hwc, levels, c, h, w, g, p, uint8(rq.XZero))
	chunks := c / int8KStep
	for kh := 0; kh < g.KH; kh++ {
		for kw := 0; kw < g.KW; kw++ {
			start := p.tapStart(g, kh, kw) * c
			for cc := range boff[(kh*g.KW+kw)*chunks:][:chunks] {
				boff[(kh*g.KW+kw)*chunks+cc] = int32(start + cc*int8KStep)
			}
		}
	}
	gc := int8Call{w: *wt, b: hwc, ldb: c, boff: boff, n: p.oh * p.ow}
	if s.wide == 0 {
		gc.requantInto(y, gc.n, rq)
		return
	}
	gc.n = p.n
	full := rq.Epilogue
	rq.Epilogue = full.wideProduct()
	gc.requantInto(wide, p.n, rq)
	p.copyOut(y, wide, wt.M, full)
}

// fillPhasesHWC writes the c planes of levels into dst as p's phase
// planes, channels last: pixel (i, j) of plane (a, b) holds, in its c
// bytes, the levels at row i·StrideH+a−PadH and column j·StrideW+b−PadW
// of every channel, and zp wherever that falls outside the image. Each
// run of live pixels is transposed eight pixels at a time (transposeRun)
// and the border runs between them are filled.
func fillPhasesHWC(dst, levels []uint8, c, h, w int, g ConvGeom, p convPlan, zp uint8) {
	pq := p.hq * p.wq
	for a := 0; a < p.pa; a++ {
		i0, i1 := clipRange(p.hq, h, g.StrideH, a-g.PadH)
		for b := 0; b < p.pb; b++ {
			j0, j1 := clipRange(p.wq, w, g.StrideW, b-g.PadW)
			ph := dst[(a*p.pb+b)*pq*c:][:pq*c]
			if i0 == i1 || j0 == j1 {
				fillU8(ph, zp)
				continue
			}
			fillU8(ph[:(i0*p.wq+j0)*c], zp)
			x0 := j0*g.StrideW + b - g.PadW
			for i := i0; i < i1; i++ {
				sy := i*g.StrideH + a - g.PadH
				transposeRun(ph[(i*p.wq+j0)*c:], levels, sy*w+x0, c, j1-j0, h*w, g.StrideW)
				next := pq
				if i+1 < i1 {
					next = (i+1)*p.wq + j0
				}
				fillU8(ph[(i*p.wq+j1)*c:next*c], zp)
			}
		}
	}
}

// transposeRun writes run pixels, stride apart from src[s] in a plane of
// c channels plane bytes apart, to dst as run consecutive c-byte pixels:
// on the AVX-512 kernel where it runs, else by gather1x1Block's 8×8
// byte transposes, else a byte at a time.
func transposeRun(dst, src []uint8, s, c, run, plane, stride int) {
	if transposeRunSIMD(dst, src, s, c, run, plane, stride) {
		return
	}
	j := 0
	if run >= 8 && stride <= 2 {
		// The last block ends at the last pixel, rewriting some of its
		// predecessor's with the same bytes.
		for ; j < run; j += 8 {
			j = min(j, run-8)
			gather1x1Block(dst[j*c:], src, s+j*stride, c, c, plane, stride)
		}
		return
	}
	for ; j < run; j++ {
		px := dst[j*c:][:c]
		for ch := range px {
			px[ch] = src[s+j*stride+ch*plane]
		}
	}
}
