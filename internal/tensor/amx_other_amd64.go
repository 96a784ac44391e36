//go:build !linux && !noasm

package tensor

// requestAMX: only Linux is known to grant the tile data, so other
// systems run the VNNI engine.
func requestAMX() bool { return false }
