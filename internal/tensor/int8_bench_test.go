package tensor

import (
	"fmt"
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

// BenchmarkGemmInt8Requant runs the requantize entry with a BatchNorm,
// skip and ReLU epilogue on ResNet18's conv shapes (OutC×plane×kp at a
// 2×2 tile of a 224×224 image, the stem first), once per engine.
func BenchmarkGemmInt8Requant(b *testing.B) {
	defer SetInt8Engine(Int8Engines()[0])
	for _, s := range [][3]int{{64, 3136, 192}, {64, 800, 576}, {128, 224, 1152}, {256, 64, 2304}, {512, 16, 4608}} {
		m, n, kp := s[0], s[1], s[2]
		rng := rand.New(rand.NewSource(1))
		a, bb := randInt8(rng, m*kp), randUint8(rng, n*kp)
		y := make([]float32, m*n)
		scale, shift, skip := randSlice(rng, m), randSlice(rng, m), randSlice(rng, m*n)
		rq := Int8Requant{WScale: scale, RowSum: make([]int32, m), XScale: 0.01, XZero: 3,
			Epilogue: Epilogue{Bias: shift, Scale: scale, Shift: shift, Skip: skip, ReLU: true}}
		for _, e := range Int8Engines() {
			if SetInt8Engine(e) != nil {
				b.Fatal(e)
			}
			w := PackInt8Weights(a, m, kp)
			b.Run(fmt.Sprintf("%dx%dx%d/%s", m, n, kp, e), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					GemmInt8RequantInto(y, n, &w, bb, n, rq)
				}
				b.ReportMetric(float64(m*n*kp)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}
