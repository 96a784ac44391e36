//go:build !amd64 || noasm

package kernelbench

// fmaPeakGFlops: no FMA loop is linked in, so shares of peak are omitted.
func fmaPeakGFlops(int) float64 { return 0 }
