//go:build !amd64 || noasm

package tensor

// postSIMD: no vector kernel is linked in; the portable loop runs.
func postSIMD(dst, src []float32, p RowPost) bool { return false }

// maxPool2x2SIMD: no vector kernel is linked in; the portable loop runs.
func maxPool2x2SIMD(dst, src []float32, planes, h, w int) bool { return false }
