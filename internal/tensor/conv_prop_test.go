package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// im2colConv is ConvInto's oracle: the column matrix, then the fused
// GEMM over it.
func im2colConv(x, wt []float32, c, h, w, outC int, g ConvGeom, ep Epilogue) []float32 {
	oh, ow := g.OutSize(h, w)
	cols := make([]float32, g.ColsLen(c, h, w))
	Im2ColSlice(cols, x, c, h, w, g)
	y := make([]float32, outC*oh*ow)
	GemmEpilogueInto(y, wt, cols, outC, c*g.KH*g.KW, oh*ow, ep)
	return y
}

// specials writes NaN, −0 and +0 over about one element in eight of s.
func specials(rng *rand.Rand, s []float32) []float32 {
	for i := range s {
		switch rng.Intn(24) {
		case 0:
			s[i] = float32(math.NaN())
		case 1:
			s[i] = float32(math.Copysign(0, -1))
		case 2:
			s[i] = 0
		}
	}
	return s
}

// TestConvIntoBitIdenticalToIm2Col holds ConvInto to Im2ColSlice +
// GemmEpilogueInto bit for bit on every tier: kernels 1, 3, 5 and 7,
// strides 1 and 2 (and, a few at a time, unequal strides and pads),
// pads 0–3, planes from 1×1 to odd rectangles, OutC on both sides of the
// tile height, BatchNorm, skip and ReLU each on and off, and NaN, −0
// and +0 in the image, the skip and the accumulators. The output starts
// as garbage, so an element ConvInto forgets shows.
func TestConvIntoBitIdenticalToIm2Col(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		planes := [][2]int{{1, 1}, {2, 2}, {7, 5}, {4, 9}, {12, 11}}
		outCs := []int{1, 5, 6, 7, 64}
		cases := 0
		for _, kern := range []int{1, 3, 5, 7} {
			for stride := 1; stride <= 2; stride++ {
				for pad := 0; pad <= 3; pad++ {
					for _, hw := range planes {
						g := ConvGeom{KH: kern, KW: kern, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
						if rng.Intn(8) == 0 { // now and then a lopsided geometry
							g.KW, g.StrideW, g.PadW = 1+2*rng.Intn(4), 1+rng.Intn(3), rng.Intn(4)
						}
						oh, ow := g.OutSize(hw[0], hw[1])
						if oh <= 0 || ow <= 0 {
							continue
						}
						outC := outCs[cases%len(outCs)]
						c := 1 + rng.Intn(3)
						checkConvInto(t, rng, hw[0], hw[1], c, outC, g, cases)
						cases++
					}
				}
			}
		}
		if cases < 100 {
			t.Fatalf("only %d geometries had an output", cases)
		}
		// ResNet18's stride-1 and stride-2 3×3 convolutions at 28², enough
		// flops to split the product over three workers.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
		for stride := 1; stride <= 2; stride++ {
			g := ConvGeom{KH: 3, KW: 3, StrideH: stride, StrideW: stride, PadH: 1, PadW: 1}
			checkConvInto(t, rng, 28, 28, 16, 64, g, 2+8*stride)
		}
	})
}

// checkConvInto runs one geometry with the post-ops picked by the bits
// of sel, against the oracle.
func checkConvInto(t *testing.T, rng *rand.Rand, h, w, c, outC int, g ConvGeom, sel int) {
	t.Helper()
	oh, ow := g.OutSize(h, w)
	k, plane := c*g.KH*g.KW, oh*ow
	x := specials(rng, randSlice(rng, c*h*w))
	wt := randSlice(rng, outC*k)
	ep := Epilogue{ReLU: sel&4 != 0}
	if sel&1 == 0 {
		ep.Bias = randSlice(rng, outC)
	}
	if sel&2 != 0 {
		ep.Scale, ep.Shift = randSlice(rng, outC), randSlice(rng, outC)
	}
	if (sel/8)&1 != 0 {
		ep.Skip = specials(rng, randSlice(rng, outC*plane))
	}
	want := im2colConv(x, wt, c, h, w, outC, g, ep)
	got := make([]float32, outC*plane)
	for i := range got {
		got[i] = 42
	}
	scratch := GetBuf(g.ConvScratchLen(c, h, w, outC))
	ConvInto(got, x, wt, c, h, w, outC, g, ep, scratch)
	PutBuf(scratch)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: y[%d] = %g (%#x), im2col+GEMM %g (%#x)", convCase(h, w, c, outC, g, ep),
				i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func convCase(h, w, c, outC int, g ConvGeom, ep Epilogue) string {
	return fmt.Sprintf("%dx%dx%d→%d %dx%d/%dx%d pad %dx%d bias %v bn %v skip %v relu %v",
		c, h, w, outC, g.KH, g.KW, g.StrideH, g.StrideW, g.PadH, g.PadW,
		ep.Bias != nil, ep.Scale != nil, ep.Skip != nil, ep.ReLU)
}
