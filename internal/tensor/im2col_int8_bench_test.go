package tensor

import (
	"math/rand"
	"testing"
)

// Benchmarks for the quantized im2col packers on the two shapes that
// bound the model zoo: the 64ch 3×3 56² VGG entry layer (word-move
// path) and the 512ch 1×1 14² YOLO reduction (byte-gather path).

func benchIm2ColU8(b *testing.B, c, h, w int, g ConvGeom, ref bool) {
	rng := rand.New(rand.NewSource(1))
	src := make([]uint8, c*h*w)
	for i := range src {
		src[i] = uint8(rng.Intn(256))
	}
	kp := Int8KP(c * g.KH * g.KW)
	oh, ow := g.OutSize(h, w)
	dst := make([]uint8, oh*ow*kp)
	b.SetBytes(int64(len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ref {
			refIm2ColU8Slice(dst, src, c, h, w, g, 128, kp)
		} else {
			Im2ColU8Slice(dst, src, c, h, w, g, 128, kp)
		}
	}
}

func benchIm2ColQuant(b *testing.B, c, h, w int, g ConvGeom, ref bool) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float32, c*h*w)
	for i := range src {
		src[i] = rng.Float32()*2 - 1
	}
	kp := Int8KP(c * g.KH * g.KW)
	oh, ow := g.OutSize(h, w)
	dst := make([]uint8, oh*ow*kp)
	b.SetBytes(int64(len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ref {
			refIm2ColQuantSlice(dst, src, c, h, w, g, 127.5, 128, kp)
		} else {
			Im2ColQuantSlice(dst, src, c, h, w, g, 127.5, 128, kp)
		}
	}
}

var (
	geom3x3 = ConvGeom{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	geom1x1 = ConvGeom{KH: 1, KW: 1, StrideH: 1, StrideW: 1}
)

func BenchmarkIm2ColQuant3x3(b *testing.B)    { benchIm2ColQuant(b, 64, 56, 56, geom3x3, false) }
func BenchmarkIm2ColQuant3x3Ref(b *testing.B) { benchIm2ColQuant(b, 64, 56, 56, geom3x3, true) }
func BenchmarkIm2ColU83x3(b *testing.B)       { benchIm2ColU8(b, 64, 56, 56, geom3x3, false) }
func BenchmarkIm2ColU83x3Ref(b *testing.B)    { benchIm2ColU8(b, 64, 56, 56, geom3x3, true) }
func BenchmarkIm2ColU81x1(b *testing.B)       { benchIm2ColU8(b, 512, 14, 14, geom1x1, false) }
func BenchmarkIm2ColU81x1Ref(b *testing.B)    { benchIm2ColU8(b, 512, 14, 14, geom1x1, true) }
