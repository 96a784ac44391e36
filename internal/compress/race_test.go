package compress

import (
	"math/rand"
	"sync"
	"testing"

	"adcnn/internal/tensor"
)

// TestCodecConcurrentEncodeDecode runs fused encodes and decodes from many
// goroutines at once, while a second codec configuration keeps replacing
// the shared dequantization table — the race detector verifies the LUT
// cache keeps the hot path safe without locks.
func TestCodecConcurrentEncodeDecode(t *testing.T) {
	p, other := NewPipeline(4, 6), NewPipeline(4, 3)
	x := fusedSparseTensor(rand.New(rand.NewSource(21)), 2048, 0.8, 6)
	payloads := make([][]byte, 2)
	for i, q := range []Pipeline{p, other} {
		var err error
		if payloads[i], err = q.Encode(x); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := tensor.GetBytes(p.MaxEncodedSize(x))
			var dst tensor.Tensor
			for i := 0; i < 200; i++ {
				out, err := p.EncodeInto(buf[:0], x)
				if err != nil {
					t.Error(err)
					return
				}
				buf = out
				// Alternate ranges across goroutines so lutFor both hits
				// and republishes the cached table.
				if err := DecodeInto(&dst, payloads[(g+i)%2]); err != nil {
					t.Error(err)
					return
				}
				_ = p.EncodedSize(x)
			}
		}()
	}
	wg.Wait()
}
