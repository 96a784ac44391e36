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

// hasVNNI gates the VPDPBUSD int8 fast path inside the AVX-512 tier.
// It is a separate flag rather than a tier because VNNI changes no
// numeric behaviour (the int8 dot is exact either way) — only the
// instruction mix. Tests flip it through setVNNI to exercise both
// kernels on VNNI hosts.
var hasVNNI = cpufeat.Detect().UsableVNNI()

// setVNNI forces the VNNI fast path on or off for parity tests and
// baseline benchmarks; returns the previous value. Enabling it on a
// host without VNNI would fault, so callers must only restore a value
// previously returned by setVNNI. Same caveat as SetKernelTier: not
// safe concurrently with running GEMMs.
func setVNNI(on bool) bool {
	prev := hasVNNI
	hasVNNI = on && cpufeat.Detect().UsableVNNI()
	return prev
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
// c[r*ldc+j] = bias[r] + Σp a[r*lda+p]·b[p*ldb+j] for r < MR, j < nr,
// with k ≥ 1, nr ≤ NR and MR readable rows of a and bias.
func gemmTile(c []float32, ldc int, a []float32, lda int, b []float32, ldb, k, nr int, bias []float32) {
	switch kernelTier {
	case TierAVX512:
		gemmTileAVX512(&c[0], ldc, &a[0], lda, &b[0], ldb, k, uint64(1)<<nr-1, &bias[0])
	case TierAVX2:
		gemmTileAVX2(&c[0], ldc, &a[0], lda, &b[0], ldb, k, &laneMasks[16-nr], &bias[0])
	default:
		gemmTileGeneric(c, ldc, a, lda, b, ldb, k, nr, bias)
	}
}
