//go:build poison

package tensor

import "math"

// poison makes PutBuf fill every buffer it takes back with NaN, so a
// read after the put shows up as NaN in whatever the reader computes —
// and the bit-identity tests fail. Build with -tags poison.
const poison = true

func fillNaN(buf []float32) {
	nan := float32(math.NaN())
	for i := range buf {
		buf[i] = nan
	}
}
