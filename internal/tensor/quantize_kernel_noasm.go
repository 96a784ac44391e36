//go:build !amd64 || noasm

package tensor

// quantizeAffineSIMD: no vector quantizer is linked in; the scalar path
// handles everything.
func quantizeAffineSIMD(dst []uint8, src []float32, invScale, zpF float32) int { return 0 }

// minMaxSIMD: no vector kernel; MinMax scans every element.
func minMaxSIMD(xs []float32) (mn, mx float32, n int, nan bool) { return 0, 0, 0, false }

// gather3x3 is the portable loop.
func gather3x3(row, src []uint8, s, wp, plane int) { gather3x3Generic(row, src, s, wp, plane) }

// transposeRunSIMD: no vector kernel; transposeRun moves the bytes.
func transposeRunSIMD(dst, src []uint8, s, c, run, plane, stride int) bool { return false }
