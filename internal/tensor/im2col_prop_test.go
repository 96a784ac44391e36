package tensor

import (
	"math/rand"
	"testing"
)

// naiveIm2Col is the oracle: one bounds test per element, nothing shared
// with Im2ColSlice's range clipping.
func naiveIm2Col(src []float32, c, h, w int, g ConvGeom) []float32 {
	oh, ow := g.OutSize(h, w)
	dst := make([]float32, c*g.KH*g.KW*oh*ow)
	for ch := 0; ch < c; ch++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*g.StrideH-g.PadH+kh, ox*g.StrideW-g.PadW+kw
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							dst[(((ch*g.KH+kh)*g.KW+kw)*oh+oy)*ow+ox] = src[(ch*h+iy)*w+ix]
						}
					}
				}
			}
		}
	}
	return dst
}

// TestIm2ColSliceMatchesNaive sweeps the geometries the zoo and the
// tiling produce — kernels 1/3/7 (square and not), strides 1 and 2,
// padding 0–3 including more padding than image, images shorter than the
// kernel — into a pooled buffer filled with garbage, so a position the
// kernel forgets to define shows up as garbage rather than as a lucky zero.
func TestIm2ColSliceMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	sizes := []int{1, 3, 7}
	for trial := 0; trial < 400; trial++ {
		g := ConvGeom{
			KH: sizes[rng.Intn(3)], KW: sizes[rng.Intn(3)],
			StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2),
			PadH: rng.Intn(4), PadW: rng.Intn(4),
		}
		if trial%4 == 0 { // the "same" convolutions take the single-run path
			g.StrideH, g.StrideW, g.PadH, g.PadW = 1, 1, (g.KH-1)/2, (g.KW-1)/2
		}
		c, h, w := 1+rng.Intn(3), 1+rng.Intn(12), 1+rng.Intn(12)
		if h+2*g.PadH < g.KH || w+2*g.PadW < g.KW {
			continue // no output
		}
		src := randSlice(rng, c*h*w)
		want := naiveIm2Col(src, c, h, w, g)
		got := GetBuf(len(want) + 5)
		for i := range got {
			got[i] = float32(1e30)
		}
		Im2ColSlice(got, src, c, h, w, g)
		for i, v := range want {
			if got[i] != v {
				t.Fatalf("geom %+v on %dx%dx%d: cols[%d] = %g, want %g", g, c, h, w, i, got[i], v)
			}
		}
		for _, v := range got[len(want):] {
			if v != 1e30 {
				t.Fatalf("geom %+v on %dx%dx%d: wrote past the column matrix", g, c, h, w)
			}
		}
		PutBuf(got)
	}
}
