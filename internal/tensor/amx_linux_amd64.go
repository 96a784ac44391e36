//go:build !noasm

package tensor

import "syscall"

// requestAMX asks Linux for the AMX tile data (arch_prctl
// ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA): without it the first tile
// instruction faults. The permission holds for the whole process.
func requestAMX() bool {
	const archReqXcompPerm, xfeatureXtiledata = 0x1023, 18
	_, _, errno := syscall.RawSyscall(syscall.SYS_ARCH_PRCTL, archReqXcompPerm, xfeatureXtiledata, 0)
	return errno == 0
}
