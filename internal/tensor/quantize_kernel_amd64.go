//go:build amd64 && !noasm

package tensor

// quantizePackAVX2 (quantize_kernel_amd64.s) quantizes n floats (n a
// positive multiple of 32) into uint8 levels, bit-exact with
// QuantizeAffine on finite inputs.
//
//go:noescape
func quantizePackAVX2(dst *uint8, src *float32, n int, invScale, zpF float32)

// quantizePackAVX512 is the 16-wide AVX-512 variant, using VPMOVDB to
// narrow without shuffles; any positive n (the last step is masked).
//
//go:noescape
func quantizePackAVX512(dst *uint8, src *float32, n int, invScale, zpF float32)

// minMaxAVX2 returns the minimum and maximum of n floats, n a positive
// multiple of 32, and whether any of them is a NaN.
//
//go:noescape
func minMaxAVX2(xs *float32, n int) (mn, mx float32, nan bool)

// gather3x3Words (quantize_kernel_amd64.s) is gather3x3Generic's loop
// for c ≥ 1 channels, row and src pointing at the first window.
//
//go:noescape
func gather3x3Words(row, src *uint8, c, wp, plane int)

// gather3x3 is gather3x3Generic without bounds checks, which cost the
// Go loop three times its work; the last word read must lie in src.
func gather3x3(row, src []uint8, s, wp, plane int) {
	c := len(row) / 9
	if c == 0 {
		return
	}
	_ = src[s+(c-1)*plane+2*wp+7]
	gather3x3Words(&row[0], &src[s], c, wp, plane)
}

// hwcRunAVX512 (hwc_kernel_amd64.s) is transposeRun's loop for run ≥ 8
// and a stride of 1 or 2, c a multiple of 64; idx holds 0, plane, …,
// 7·plane.
//
//go:noescape
func hwcRunAVX512(dst, src *uint8, idx *[8]int64, c, run, stride int)

// transposeRunSIMD runs transposeRun on the AVX-512 kernel when the tier
// has it and the run fits, reporting whether it did.
func transposeRunSIMD(dst, src []uint8, s, c, run, plane, stride int) bool {
	if kernelTier < TierAVX512 || run < 8 || stride > 2 || c%int8KStep != 0 {
		return false
	}
	_ = dst[(run-1)*c+c-1]
	_ = src[s+(c-1)*plane+(run-1)*stride]
	idx := [8]int64{0, int64(plane), int64(2 * plane), int64(3 * plane),
		int64(4 * plane), int64(5 * plane), int64(6 * plane), int64(7 * plane)}
	hwcRunAVX512(&dst[0], &src[s], &idx, c, run, stride)
	return true
}

// quantizeAffineSIMD quantizes a prefix of src into dst with the widest
// available vector kernel and returns how many elements it handled; the
// caller finishes the tail with the scalar quantizer. Returns 0 when no
// vector kernel applies (short input or generic tier).
func quantizeAffineSIMD(dst []uint8, src []float32, invScale, zpF float32) int {
	switch {
	case kernelTier >= TierAVX512:
		if n := len(src); n > 0 {
			quantizePackAVX512(&dst[0], &src[0], n, invScale, zpF)
			return n
		}
	case kernelTier >= TierAVX2:
		if n := len(src) &^ 31; n > 0 {
			quantizePackAVX2(&dst[0], &src[0], n, invScale, zpF)
			return n
		}
	}
	return 0
}

// minMaxSIMD scans a prefix of xs with the vector kernel and returns
// its minimum and maximum, how many elements it covered (0 when no
// kernel applies), and whether it saw a NaN.
func minMaxSIMD(xs []float32) (mn, mx float32, n int, nan bool) {
	if n = len(xs) &^ 31; n == 0 || kernelTier < TierAVX2 {
		return 0, 0, 0, false
	}
	mn, mx, nan = minMaxAVX2(&xs[0], n)
	return mn, mx, n, nan
}
