//go:build !amd64 || noasm

package tensor

// detectKernelTier: no assembly kernels are linked in, so the portable
// kernel is the only tier.
func detectKernelTier() KernelTier { return TierGeneric }

// gemmTileShape is the portable kernel's tile.
func gemmTileShape() (mr, nr int) { return 4, 64 }

// gemmTile routes to the portable kernel.
func gemmTile(c []float32, ldc int, a []float32, lda int, b []float32, ldb, k, nr int, bias []float32, post *gemmPost) {
	gemmTileGeneric(c, ldc, a, lda, b, ldb, k, nr, bias, post)
}
