//go:build amd64 && !noasm

package tensor

// gemmTileAVX512 (gemm_kernel_amd64.s) computes one 6×nr tile,
// nr ≤ 64, of C = post(bias + A·B) with the k loop inside and the tile
// held in 24 ZMM accumulators. Bits [0,nr) of mask are set; a addresses
// 6 readable rows lda apart, bias 6 floats; strides are in elements.
// Requires AVX-512 F+BW+VL — dispatch only on TierAVX512.
//
//go:noescape
func gemmTileAVX512(c *float32, ldc int, a *float32, lda int, b *float32, ldb, k int, mask uint64, bias *float32, post *gemmPost)

// gemmTileAVX2 is the same kernel on a 6×nr tile, nr ≤ 16, in 12 YMM
// accumulators. mask addresses 16 words, all-ones for the first nr.
// Requires AVX2+FMA — dispatch only on TierAVX2.
//
//go:noescape
func gemmTileAVX2(c *float32, ldc int, a *float32, lda int, b *float32, ldb, k int, mask *int32, bias *float32, post *gemmPost)
