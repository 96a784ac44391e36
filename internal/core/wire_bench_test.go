package core

import (
	"math/rand"
	"testing"

	"adcnn/internal/tensor"
)

// benchTensor is sized like a real front-layer tile batch: the codec's
// bulk word conversion is what keeps tile dispatch off the CPU profile.
func benchTensor() *tensor.Tensor {
	x := tensor.New(1, 64, 56, 56)
	x.RandN(rand.New(rand.NewSource(7)), 1)
	return x
}

func BenchmarkEncodeTensor(b *testing.B) {
	x := benchTensor()
	buf := make([]byte, 0, TensorWireSize(x))
	b.SetBytes(int64(4 * len(x.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendTensor(buf[:0], x)
	}
}

func BenchmarkDecodeTensor(b *testing.B) {
	enc := AppendTensor(nil, benchTensor())
	dst := new(tensor.Tensor)
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeTensorInto(dst, enc); err != nil {
			b.Fatal(err)
		}
	}
}
