//go:build amd64 && !noasm

package tensor

import "adcnn/internal/cpufeat"

// detectKernelTier maps the host feature set onto the widest usable
// kernel tier: AVX-512 requires F+BW+VL and OS ZMM/opmask state, AVX2
// requires FMA and OS YMM-state support; anything older runs the
// portable kernels.
func detectKernelTier() KernelTier {
	f := cpufeat.Detect()
	if f.UsableAVX512() {
		return TierAVX512
	}
	if f.UsableAVX2() {
		return TierAVX2
	}
	return TierGeneric
}

// gemmTileShape is the MR×NR tile of the dispatched tier's kernel.
func gemmTileShape() (mr, nr int) {
	switch kernelTier {
	case TierAVX512:
		return 6, 64
	case TierAVX2:
		return 6, 16
	}
	return 4, 64
}

// laneMasks[16-nr:] is the AVX2 kernel's column mask for a tile nr wide.
var laneMasks = [32]int32{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1}

// gemmTile runs the dispatched tier's micro-kernel on one tile:
// c[r*ldc+j] = post(bias[r] + Σp a[r*lda+p]·b[boff[p]+j]) for r < MR,
// j < nr, with k ≥ 1, nr ≤ NR, MR readable rows of a, bias and post's
// per-row slices, and k+gemmPrefetchRows entries of boff.
func gemmTile(c []float32, ldc int, a []float32, lda int, b []float32, boff []int32, k, nr int, bias []float32, post *gemmPost) {
	switch kernelTier {
	case TierAVX512:
		gemmTileAVX512(&c[0], ldc, &a[0], lda, &b[0], &boff[0], k, uint64(1)<<nr-1, &bias[0], post)
	case TierAVX2:
		gemmTileAVX2(&c[0], ldc, &a[0], lda, &b[0], &boff[0], k, &laneMasks[16-nr], &bias[0], post)
	default:
		gemmTileGeneric(c, ldc, a, lda, b, boff, k, nr, bias, post)
	}
}
