//go:build amd64 && !noasm

package tensor

import "adcnn/internal/cpufeat"

// int8PanelVNNI (gemm_int8_kernel_amd64.s) is int8PanelGeneric on
// AVX-512 VNNI: one VPDPBUSD per (row, column) pair and 64-byte k step.
// Requires AVX-512 F+BW+VL and VNNI.
//
//go:noescape
func int8PanelVNNI(p *int8Panel)

// int8TilesAMX (gemm_int8_amx_amd64.s) runs one amxKernel. Requires
// AMX-TILE, AMX-INT8, AVX-512 and the process's tile-data permission.
//
//go:noescape
func int8TilesAMX(k *amxKernel)

var (
	hostVNNI = cpufeat.Detect().UsableVNNI()
	// hostAMX asks the OS for the tile data once, on a host whose CPU
	// and OS support it.
	hostAMX = cpufeat.Detect().UsableAMXInt8() && requestAMX()
)

// hostInt8Engine is the fastest int8 engine the host can run.
var hostInt8Engine = func() int8Engine {
	switch {
	case hostAMX:
		return engineAMX
	case hostVNNI:
		return engineVNNI
	}
	return engineGeneric
}()

func int8EngineUsable(e int8Engine) bool {
	switch e {
	case engineAMX:
		return hostAMX
	case engineVNNI:
		return hostVNNI
	}
	return e == engineGeneric
}

// int8Kernel runs a row panel on the VNNI kernel when that engine is
// selected and the portable kernel otherwise: without VPDPBUSD the f32
// engine is the fast mode, so there is no other int8 panel assembly.
func int8Kernel(p *int8Panel) {
	if currentInt8Engine() == engineVNNI {
		int8PanelVNNI(p)
		return
	}
	int8PanelGeneric(p)
}
