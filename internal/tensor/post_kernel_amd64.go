//go:build amd64 && !noasm

package tensor

// Flags of the post kernels: which of RowPost's ops run.
const (
	postAffine = 1 << iota
	postSkip
	postReLU
)

// rowPostAVX512 (post_kernel_amd64.s) applies the post-ops flags selects
// to n ≥ 1 floats of src into dst, 16 per step, the last step masked;
// skip is read only under postSkip.
//
//go:noescape
func rowPostAVX512(dst, src, skip *float32, n int, scale, shift float32, flags int)

// rowPostAVX2 is the 8-wide variant; the last step's lanes are the
// first n%8 of the 8 words at tail (all of them when n%8 is 0).
//
//go:noescape
func rowPostAVX2(dst, src, skip *float32, n int, scale, shift float32, flags int, tail *int32)

// maxPool2x2AVX512 pools planes planes of oh row pairs each, rows w
// floats apart and the planes skip floats apart after their last pair,
// into dst, 16 outputs per step. A row's last w/2 % 16 outputs are one
// masked step: inMask covers their 2·(w/2 % 16) inputs of a row, as two
// 16-lane halves, and outMask the outputs.
//
//go:noescape
func maxPool2x2AVX512(dst, src *float32, planes, oh, w, skip int, inMask, outMask uint32)

// maxPool2x2AVX2 is the 8-wide variant; the masked step's lanes are the
// first 8 words at inLo and inHi (the inputs) and at out (the outputs).
//
//go:noescape
func maxPool2x2AVX2(dst, src *float32, planes, oh, w, skip int, inLo, inHi, out *int32)

// postSIMD runs p over src with the tier's vector kernel and reports
// whether one ran; len(dst) = len(src) ≥ 1 and Skip covers src.
func postSIMD(dst, src []float32, p RowPost) bool {
	if kernelTier < TierAVX2 {
		return false
	}
	flags, skip := 0, (*float32)(nil)
	if p.Affine {
		flags |= postAffine
	}
	if p.Skip != nil {
		flags |= postSkip
		skip = &p.Skip[0]
	}
	if p.ReLU {
		flags |= postReLU
	}
	n := len(src)
	if kernelTier >= TierAVX512 {
		rowPostAVX512(&dst[0], &src[0], skip, n, p.Scale, p.Shift, flags)
	} else {
		rowPostAVX2(&dst[0], &src[0], skip, n, p.Scale, p.Shift, flags, &laneMasks[16-(n-1)%8-1])
	}
	return true
}

// maxPool2x2SIMD pools with the tier's vector kernel and reports whether
// one ran; planes, h/2 and w/2 are ≥ 1 and the slices cover them.
func maxPool2x2SIMD(dst, src []float32, planes, h, w int) bool {
	oh, skip := h/2, (h%2)*w
	switch {
	case kernelTier >= TierAVX512:
		t := uint(w / 2 % 16)
		maxPool2x2AVX512(&dst[0], &src[0], planes, oh, w, skip, 1<<(2*t)-1, 1<<t-1)
	case kernelTier >= TierAVX2:
		t := w / 2 % 8
		lo, hi := min(2*t, 8), max(2*t-8, 0)
		maxPool2x2AVX2(&dst[0], &src[0], planes, oh, w, skip, &laneMasks[16-lo], &laneMasks[16-hi], &laneMasks[16-t])
	default:
		return false
	}
	return true
}
