//go:build !amd64 || noasm

package tensor

// detectKernelTier: no assembly kernels are linked in, so the portable
// kernel is the only tier.
func detectKernelTier() KernelTier { return TierGeneric }

// setVNNI: no VNNI without assembly kernels; the knob is inert.
func setVNNI(bool) bool { return false }

// gemmTileShape is the portable kernel's tile.
func gemmTileShape() (mr, nr int) { return 4, 64 }

// gemmTile routes to the portable kernel.
func gemmTile(c []float32, ldc int, a []float32, lda int, b []float32, ldb, k, nr int, bias []float32) {
	gemmTileGeneric(c, ldc, a, lda, b, ldb, k, nr, bias)
}
