package tensor

import "fmt"

// KernelTier identifies which micro-kernel implementation the GEMM
// engine dispatches to. Tiers are ordered: a higher tier strictly
// requires the CPU features of the lower ones.
type KernelTier int

const (
	// TierGeneric is the portable pure-Go kernel (always available, and
	// what hosts older than AVX2 run).
	TierGeneric KernelTier = 0
	// TierAVX2 is the AVX2+FMA kernel (6×16 f32 tile; int8 runs the
	// portable kernel).
	// Reports and the benchmark carry the numbers, so 1 — the retired
	// SSE tier — stays unused.
	TierAVX2 KernelTier = 2
	// TierAVX512 is the AVX-512 F+BW+VL kernel (6×64 f32 tile; int8
	// runs the VPDPBUSD kernel when the CPU has VNNI).
	TierAVX512 KernelTier = 3
)

// String names the tier for logs and benchmark reports.
func (t KernelTier) String() string {
	switch t {
	case TierGeneric:
		return "generic"
	case TierAVX2:
		return "avx2"
	case TierAVX512:
		return "avx512"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// detectedTier is the widest tier the host supports; kernelTier is the
// tier actually dispatched, normally equal to detectedTier but lowerable
// through SetKernelTier for baseline measurements and parity tests.
var (
	detectedTier = detectKernelTier()
	kernelTier   = detectedTier
)

// DetectedKernelTier returns the widest micro-kernel tier the host CPU
// (and OS register-state support) allows.
func DetectedKernelTier() KernelTier { return detectedTier }

// CurrentKernelTier returns the tier the GEMM engine is dispatching to.
func CurrentKernelTier() KernelTier { return kernelTier }

// SetKernelTier forces dispatch to a lower (or equal) tier than detected,
// so benchmarks can measure e.g. the AVX2 kernel on an AVX-512 host and
// tests can exercise every reachable kernel. Requesting a tier above the
// detected one, or one that does not exist, is an error. Not safe to call
// concurrently with running GEMMs; it is a measurement/testing knob, not
// a hot-path switch.
func SetKernelTier(t KernelTier) error {
	if t > detectedTier || (t != TierGeneric && t != TierAVX2 && t != TierAVX512) {
		return fmt.Errorf("tensor: kernel tier %v not available (detected %v)", t, detectedTier)
	}
	kernelTier = t
	return nil
}
