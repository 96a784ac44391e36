//go:build amd64 && !noasm

package tensor

import "adcnn/internal/cpufeat"

// int8PanelVNNI (gemm_int8_kernel_amd64.s) is int8PanelGeneric on
// AVX-512 VNNI: one VPDPBUSD per (row, column) pair and 64-byte k step.
// Requires AVX-512 F+BW+VL and VNNI.
//
//go:noescape
func int8PanelVNNI(p *int8Panel)

// hostVNNI reports whether the CPU and OS support AVX-512 VNNI.
var hostVNNI = cpufeat.Detect().UsableVNNI()

// int8Kernel runs the VNNI kernel on the AVX-512 tier of a VNNI host
// and the portable kernel everywhere else: without VPDPBUSD the f32
// engine is the fast mode, so there is no other int8 assembly.
func int8Kernel(p *int8Panel) {
	if kernelTier == TierAVX512 && hostVNNI {
		int8PanelVNNI(p)
		return
	}
	int8PanelGeneric(p)
}
