//go:build amd64 && !noasm

package cpufeat

// cpuid executes the CPUID instruction for (leaf, subleaf).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

const (
	// leaf 1 ECX bits
	bitFMA     = 1 << 12
	bitSSE41   = 1 << 19
	bitSSE42   = 1 << 20
	bitOSXSAVE = 1 << 27
	bitAVX     = 1 << 28
	// leaf 7 EBX bits
	bitAVX2     = 1 << 5
	bitAVX512F  = 1 << 16
	bitAVX512BW = 1 << 30
	bitAVX512VL = 1 << 31
	// leaf 7 ECX bits
	bitAVX512VNNI = 1 << 11
	// leaf 7 EDX bits
	bitAMXTile = 1 << 24
	bitAMXInt8 = 1 << 25
	// XCR0 bits: SSE (XMM) and AVX (YMM) register state, then the
	// AVX-512 triple — opmask (k0-k7), ZMM0-15 upper halves, ZMM16-31.
	xcr0SSE       = 1 << 1
	xcr0AVX       = 1 << 2
	xcr0Opmask    = 1 << 5
	xcr0ZMMHi256  = 1 << 6
	xcr0Hi16ZMM   = 1 << 7
	xcr0AVX512All = xcr0Opmask | xcr0ZMMHi256 | xcr0Hi16ZMM
	// The AMX pair: the tile configuration and the tile data.
	xcr0AMX = 1<<17 | 1<<18
)

func detect() Features {
	var f Features
	f.SSE2 = true // amd64 baseline
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return f
	}
	_, _, ecx1, _ := cpuid(1, 0)
	f.SSE41 = ecx1&bitSSE41 != 0
	f.SSE42 = ecx1&bitSSE42 != 0
	f.FMA = ecx1&bitFMA != 0
	f.AVX = ecx1&bitAVX != 0
	if ecx1&bitOSXSAVE != 0 {
		lo, _ := xgetbv()
		f.OSYMM = lo&(xcr0SSE|xcr0AVX) == (xcr0SSE | xcr0AVX)
		f.OSZMM = f.OSYMM && lo&xcr0AVX512All == xcr0AVX512All
		f.OSAMX = lo&xcr0AMX == xcr0AMX
	}
	if maxLeaf >= 7 {
		_, ebx7, ecx7, edx7 := cpuid(7, 0)
		f.AVX2 = ebx7&bitAVX2 != 0
		f.AVX512F = ebx7&bitAVX512F != 0
		f.AVX512BW = ebx7&bitAVX512BW != 0
		f.AVX512VL = ebx7&bitAVX512VL != 0
		f.AVX512VNNI = ecx7&bitAVX512VNNI != 0
		f.AMXTile = edx7&bitAMXTile != 0
		f.AMXInt8 = edx7&bitAMXInt8 != 0
	}
	return f
}
