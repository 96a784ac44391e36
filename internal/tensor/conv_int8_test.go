package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// convInt8Geoms are the geometries ConvInt8Into meets in ResNet18 — the
// 3×3 pad-1 convs at stride 1 and 2, the 1×1 stride-2 shortcut — and a
// 1×1 stride-1 conv, whose sample is its own bordered copy.
var convInt8Geoms = []ConvGeom{
	{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	{KH: 1, KW: 1, StrideH: 2, StrideW: 2},
	{KH: 1, KW: 1, StrideH: 1, StrideW: 1},
}

// convInt8Case is one implicit int8 convolution: its filters as im2col
// rows, packed both ways, and a sample with its requantize epilogue.
type convInt8Case struct {
	c, outC, h, w int
	g             ConvGeom
	rows          []int8
	x             []float32
	rq            Int8Requant
}

// newConvInt8Case draws filters, a sample with signed zeros, an
// activation scale and zero point, and the epilogue's operands: a bias,
// and a BatchNorm, a skip and a ReLU each where asked.
func newConvInt8Case(rng *rand.Rand, c, outC, h, w int, g ConvGeom, bn, skip, relu bool) convInt8Case {
	k := c * g.KH * g.KW
	cs := convInt8Case{c: c, outC: outC, h: h, w: w, g: g, rows: randInt8(rng, outC*k), x: make([]float32, c*h*w)}
	for i := range cs.x {
		switch {
		case i%11 == 0:
			cs.x[i] = float32(math.Copysign(0, -1))
		case i%7 == 0:
		default:
			cs.x[i] = 3*rng.Float32() - 1
		}
	}
	oh, ow := g.OutSize(h, w)
	plane := oh * ow
	cs.rq = Int8Requant{WScale: make([]float32, outC), RowSum: make([]int32, outC),
		XScale: (rng.Float32() + 0.5) * 3 / 255, XZero: int32(rng.Intn(256)),
		Epilogue: Epilogue{Bias: make([]float32, outC), ReLU: relu}}
	for i := 0; i < outC; i++ {
		cs.rq.WScale[i] = specialOr(rng, i, 7)
		cs.rq.RowSum[i] = rng.Int31n(1<<16) - 1<<15
		cs.rq.Bias[i] = rng.Float32() - 0.5
	}
	scale, shift, sk := epilogueOperands(rng, outC, plane, plane)
	if bn {
		cs.rq.Scale, cs.rq.Shift = scale, shift
	}
	if skip {
		cs.rq.Skip = sk
	}
	return cs
}

// im2col is the route the implicit convolution replaces: the quantized
// column matrix, then GemmInt8RequantInto with the filters in im2col
// order, into y[OutC][OH·OW].
func (cs convInt8Case) im2col(y []float32) {
	k := cs.c * cs.g.KH * cs.g.KW
	oh, ow := cs.g.OutSize(cs.h, cs.w)
	cols := make([]uint8, oh*ow*k)
	Im2ColQuantSlice(cols, cs.x, cs.c, cs.h, cs.w, cs.g, 1/cs.rq.XScale, uint8(cs.rq.XZero), k)
	wt := PackInt8Weights(cs.rows, cs.outC, k)
	GemmInt8RequantInto(y, oh*ow, &wt, cols, oh*ow, cs.rq)
}

// check runs both implicit entries into outputs prefilled with 42 (and
// 42s past the end), on scratch holding junk, and requires them to
// match the im2col route bit for bit and to leave the guard alone.
func (cs convInt8Case) check(t *testing.T, rng *rand.Rand) {
	t.Helper()
	oh, ow := cs.g.OutSize(cs.h, cs.w)
	n := cs.outC * oh * ow
	want := fill42(n)
	cs.im2col(want)
	wt := NewInt8ConvWeights(cs.outC, cs.c, cs.g.KH*cs.g.KW)
	k := wt.KP
	for i := 0; i < cs.outC; i++ {
		wt.SetRow(i, cs.rows[i*k:])
	}
	scratch := randUint8(rng, cs.g.ConvInt8ScratchLen(cs.c, cs.h, cs.w, cs.outC))
	levels := make([]uint8, len(cs.x))
	QuantizeAffineSlice(levels, cs.x, 1/cs.rq.XScale, uint8(cs.rq.XZero))
	for _, entry := range []string{"float", "levels"} {
		got := fill42(n + 16)
		if entry == "float" {
			ConvInt8Into(got[:n], cs.x, cs.c, cs.h, cs.w, cs.g, &wt, cs.rq, scratch)
		} else {
			ConvInt8LevelsInto(got[:n], levels, cs.c, cs.h, cs.w, cs.g, &wt, cs.rq, scratch)
		}
		for i, v := range got {
			w := float32(42)
			if i < n {
				w = want[i]
			}
			if math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("%s %s: y[%d] = %g (%#08x), want %g (%#08x)", cs, entry, i, v, math.Float32bits(v), w, math.Float32bits(w))
			}
		}
	}
}

func (cs convInt8Case) String() string {
	return fmt.Sprintf("%d→%d %d×%d k%d s%d p%d bn=%t skip=%t relu=%t", cs.c, cs.outC, cs.h, cs.w,
		cs.g.KH, cs.g.StrideH, cs.g.PadH, cs.rq.Scale != nil, cs.rq.Skip != nil, cs.rq.ReLU)
}

func fill42(n int) []float32 {
	y := make([]float32, n)
	for i := range y {
		y[i] = 42
	}
	return y
}

// TestConvInt8ImplicitBitIdentical holds the implicit int8 convolution —
// the sample quantized into a channels-last bordered copy and read in
// place through a column stride and an offset table — to the quantized
// im2col route bit for bit, on every tier and int8 engine: InC 64, 128
// and 512; the 3×3 pad-1 convs at stride 1 and 2 and the 1×1 convs at
// stride 2 and 1; planes from 1×1 to 28×28, odd ones among them; and
// every combination of BatchNorm, skip and ReLU after the bias.
func TestConvInt8ImplicitBitIdentical(t *testing.T) {
	forEachInt8Engine(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(89))
		post := 0
		for _, c := range []int{64, 128, 512} {
			for _, hw := range []int{1, 2, 5, 7, 9, 14, 28} {
				if c*hw > 512*7 {
					continue // keeps the portable engine's share near a second
				}
				for gi, g := range convInt8Geoms {
					outC := []int{16, 40, 64}[(gi+hw)%3]
					bn, skip, relu := post&1 != 0, post&2 != 0, post&4 != 0
					post++
					newConvInt8Case(rng, c, outC, hw, hw+gi%2, g, bn, skip, relu).check(t, rng)
				}
			}
		}
	})
}

// FuzzConvInt8Implicit fuzzes the implicit int8 convolution's geometry,
// zero point and data against the im2col route on every int8 engine
// the host runs; its seed corpus runs under plain go test.
func FuzzConvInt8Implicit(f *testing.F) {
	f.Add([]byte{1, 200, 3, 77, 0, 255}, uint8(0), uint8(7), uint8(7), uint8(0), uint8(9), uint8(128))
	f.Add([]byte{9, 9, 9}, uint8(1), uint8(5), uint8(10), uint8(1), uint8(0), uint8(0))
	f.Add([]byte{255, 0}, uint8(0), uint8(14), uint8(3), uint8(2), uint8(5), uint8(255))
	f.Add([]byte{42}, uint8(1), uint8(1), uint8(1), uint8(3), uint8(2), uint8(17))
	f.Fuzz(func(t *testing.T, data []byte, chunks, h, w, geom, post, zp uint8) {
		if len(data) == 0 {
			t.Skip()
		}
		c := int8KStep * (1 + int(chunks)%2)
		hh, ww := 1+int(h)%16, 1+int(w)%16
		g := convInt8Geoms[int(geom)%len(convInt8Geoms)]
		rng := rand.New(rand.NewSource(int64(data[0])))
		cs := newConvInt8Case(rng, c, 24, hh, ww, g, post&1 != 0, post&2 != 0, post&4 != 0)
		for i := range cs.x {
			cs.x[i] = float32(int8(data[i%len(data)])) / 16
		}
		cs.rq.XZero = int32(zp)
		defer SetInt8Engine(Int8Engines()[0])
		for _, e := range Int8Engines() {
			if err := SetInt8Engine(e); err != nil {
				t.Fatal(err)
			}
			cs.check(t, rng)
		}
	})
}
