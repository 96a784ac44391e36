package tensor

import "testing"

func benchTier(b *testing.B, t KernelTier) {
	if err := SetKernelTier(t); err != nil {
		b.Skip(err)
	}
	defer SetKernelTier(DetectedKernelTier())
	const s = 256
	a := New(s, s)
	bb := New(s, s)
	c := New(s, s)
	b.SetBytes(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmInto(c.Data, a.Data, bb.Data, s, s, s)
	}
}

func BenchmarkGemmTierGeneric(b *testing.B) { benchTier(b, TierGeneric) }
func BenchmarkGemmTierAVX2(b *testing.B)    { benchTier(b, TierAVX2) }
func BenchmarkGemmTierAVX512(b *testing.B)  { benchTier(b, TierAVX512) }
