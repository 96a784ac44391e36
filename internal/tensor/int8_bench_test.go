package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkGemmInt8Dot256 measures the int8 engine on the acceptance
// shape; compare against BenchmarkGemmTierAVX512 for the f32 engine.
func BenchmarkGemmInt8Dot256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const m, n, kp = 256, 256, 256
	a := randInt8(rng, m*kp)
	bb := randUint8(rng, n*kp)
	c := make([]int32, m*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmInt8DotInto(c, a, bb, m, n, kp)
	}
}
