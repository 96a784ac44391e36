// Package cpufeat detects x86 SIMD capability at runtime via CPUID so
// the tensor kernels can dispatch the widest micro-kernel the host (and
// the operating system's register-state support) actually provides, and
// so benchmark reports can record which kernel tier was exercised.
// Non-amd64 builds (and the noasm build tag) report no features, which
// routes every caller to the portable kernels.
package cpufeat

import (
	"strings"
	"sync"
)

// Features is the SIMD capability set relevant to the compute kernels.
type Features struct {
	SSE2     bool // amd64 baseline
	SSE41    bool
	SSE42    bool
	AVX      bool
	FMA      bool
	AVX2     bool
	AVX512F  bool
	AVX512BW bool
	AVX512VL bool
	// AVX512VNNI is the int8 dot-product extension (VPDPBUSD): four
	// u8×s8 products accumulated into each int32 lane in one
	// instruction, halving the instruction count of the widen+VPMADDWD
	// int8 kernel.
	AVX512VNNI bool
	// AMXTile and AMXInt8 are the matrix engine: eight 1 KiB tile
	// registers and TDPBUSD, a 16×16 int32 tile += 16×64 u8 · 64×16 s8
	// in one instruction.
	AMXTile bool
	AMXInt8 bool
	// OSYMM reports that the OS saves the full YMM register state
	// (XGETBV XCR0 bits 1-2); without it AVX/AVX2 must not be used even
	// when the CPU advertises them.
	OSYMM bool
	// OSZMM reports that the OS additionally saves the AVX-512 state:
	// opmask registers and the ZMM halves (XGETBV XCR0 bits 5-7).
	// Without it AVX-512 must not be used even when the CPU advertises
	// it — the kernel would silently corrupt ZMM state across context
	// switches.
	OSZMM bool
	// OSAMX reports that the OS manages the tile state (XCR0 bits 17-18,
	// XTILECFG and XTILEDATA). Linux additionally makes each process ask
	// for the tile data before its first use (see tensor's AMX engine).
	OSAMX bool
}

var (
	once     sync.Once
	detected Features
)

// Detect returns the host's feature set. The CPUID probe runs once; the
// result is cached for the process lifetime.
func Detect() Features {
	once.Do(func() { detected = detect() })
	return detected
}

// UsableAVX2 reports whether AVX2+FMA kernels may be executed: the CPU
// advertises both and the OS preserves YMM state across context switches.
func (f Features) UsableAVX2() bool { return f.AVX2 && f.FMA && f.OSYMM }

// UsableAVX512 reports whether AVX-512 (F+BW+VL) kernels may be
// executed: the CPU advertises the feature trio and the OS preserves
// both the YMM and the extended ZMM/opmask register state.
func (f Features) UsableAVX512() bool {
	return f.AVX512F && f.AVX512BW && f.AVX512VL && f.OSYMM && f.OSZMM
}

// UsableVNNI reports whether the VPDPBUSD int8 fast path may be used on
// top of the AVX-512 kernels.
func (f Features) UsableVNNI() bool { return f.UsableAVX512() && f.AVX512VNNI }

// UsableAMXInt8 reports whether the CPU has the AMX int8 engine, the OS
// enables its state, and the AVX-512 kernels that finish its tiles may
// run.
func (f Features) UsableAMXInt8() bool {
	return f.UsableAVX512() && f.AMXTile && f.AMXInt8 && f.OSAMX
}

// String renders the enabled features as a comma-separated list
// ("sse2,sse4.1,avx,fma,avx2,..."), empty when nothing was detected.
func (f Features) String() string {
	var names []string
	add := func(on bool, name string) {
		if on {
			names = append(names, name)
		}
	}
	add(f.SSE2, "sse2")
	add(f.SSE41, "sse4.1")
	add(f.SSE42, "sse4.2")
	add(f.AVX, "avx")
	add(f.FMA, "fma")
	add(f.AVX2, "avx2")
	add(f.AVX512F, "avx512f")
	add(f.AVX512BW, "avx512bw")
	add(f.AVX512VL, "avx512vl")
	add(f.AVX512VNNI, "avx512vnni")
	add(f.AMXTile, "amx-tile")
	add(f.AMXInt8, "amx-int8")
	return strings.Join(names, ",")
}
