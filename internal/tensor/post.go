package tensor

import "math"

// The memory-bound inference passes that follow a convolution: the
// post-ops of a run of floats (a folded BatchNorm, a residual add, a
// ReLU) and the 2×2/stride-2 max-pool. Each has a vector kernel per
// tier (post_kernel_amd64.s) and the portable loop below, bit-identical
// to it.

// RowPost is the post-ops one pass applies to a run of floats, in this
// order, each op rounded on its own (never fused):
//
//	y = float32(Scale·x) + Shift   a folded BatchNorm, when Affine
//	y = y + Skip[j]                a residual add, when Skip != nil
//	y = max(y, +0)                 a ReLU, when ReLU; NaN and −0 give +0
//
// — bit for bit what a separate pass of each would store. Where both
// addends of the skip are NaN, the running value's NaN is the sum's. The
// zero RowPost is a copy.
type RowPost struct {
	Affine       bool
	Scale, Shift float32
	Skip         []float32
	ReLU         bool
}

// Into writes the post-ops of src to dst; dst may be src, and Skip, when
// set, covers len(src).
func (p RowPost) Into(dst, src []float32) {
	dst = dst[:len(src)]
	if p.Skip != nil {
		p.Skip = p.Skip[:len(src)]
	}
	if len(src) == 0 || postSIMD(dst, src, p) {
		return
	}
	p.generic(dst, src)
}

// generic is the portable code, the generic tier and the noasm build:
// one tight loop per op, each reading what the last one wrote, so a
// lone BatchNorm or ReLU runs at the speed of its own pass. The sign of
// an activation is a coin toss, so the ReLU tests the bit pattern, which
// compiles to a conditional move and not to a branch that mispredicts
// every other element: a float32 is > 0 exactly when its bits lie in
// [1, +Inf's].
func (p RowPost) generic(dst, src []float32) {
	in := src
	if p.Affine {
		for j, v := range in {
			dst[j] = float32(p.Scale*v) + p.Shift
		}
		in = dst
	}
	if p.Skip != nil {
		for j, v := range in {
			s := p.Skip[j]
			if v != v {
				s = 0 // v's NaN wins, whichever addend the compiler puts first
			}
			dst[j] = v + s
		}
		in = dst
	}
	if p.ReLU {
		for j, v := range in {
			u := math.Float32bits(v)
			var keep uint32
			if u-1 < 0x7F800000 {
				keep = u
			}
			dst[j] = math.Float32frombits(keep)
		}
		return
	}
	if !p.Affine && p.Skip == nil {
		copy(dst, src)
	}
}

// MaxPool2x2Into pools planes h×w planes of src, one after another, into
// the (h/2)×(w/2) planes of dst with a 2×2 window and stride 2; an odd
// last row or column is dropped. Each output is Go's max over its window
// in the order (0,0), (0,1), (1,0), (1,1), so NaNs and signed zeros come
// out as the builtin leaves them.
func MaxPool2x2Into(dst, src []float32, planes, h, w int) {
	oh, ow := h/2, w/2
	if planes <= 0 || oh == 0 || ow == 0 {
		return
	}
	src, dst = src[:planes*h*w], dst[:planes*oh*ow]
	if maxPool2x2SIMD(dst, src, planes, h, w) {
		return
	}
	maxPool2x2Generic(dst, src, planes, h, w)
}

// maxPool2x2Generic is the portable loop; planes, h/2 and w/2 are ≥ 1.
func maxPool2x2Generic(dst, src []float32, planes, h, w int) {
	oh, ow := h/2, w/2
	for i := 0; i < planes; i++ {
		plane := src[i*h*w:]
		for oy := 0; oy < oh; oy++ {
			r0, r1 := plane[2*oy*w:][:2*ow], plane[(2*oy+1)*w:][:2*ow]
			d := dst[(i*oh+oy)*ow:][:ow]
			for ox := range d {
				d[ox] = max(max(max(r0[2*ox], r0[2*ox+1]), r1[2*ox]), r1[2*ox+1])
			}
		}
	}
}
