package fdsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adcnn/internal/nn"
	"adcnn/internal/tensor"
)

func TestLayoutCoversImageExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Grid{Rows: 1 + rng.Intn(6), Cols: 1 + rng.Intn(6)}
		h := g.Rows + rng.Intn(40)
		w := g.Cols + rng.Intn(40)
		tiles := g.Layout(h, w)
		cover := make([][]int, h)
		for y := range cover {
			cover[y] = make([]int, w)
		}
		for _, tl := range tiles {
			if tl.H < 1 || tl.W < 1 {
				return false
			}
			for y := tl.Y0; y < tl.Y0+tl.H; y++ {
				for x := tl.X0; x < tl.X0+tl.W; x++ {
					cover[y][x]++
				}
			}
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if cover[y][x] != 1 {
					return false // gap or overlap
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutTileSizesDifferByAtMostOne(t *testing.T) {
	g := Grid{Rows: 3, Cols: 3}
	tiles := g.Layout(10, 11)
	for _, tl := range tiles {
		if tl.H < 3 || tl.H > 4 || tl.W < 3 || tl.W > 4 {
			t.Fatalf("tile %+v not near-equal for 10x11 / 3x3", tl)
		}
	}
}

func TestLayoutPanicsOnTinyImage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Grid{Rows: 4, Cols: 4}.Layout(2, 8)
}

func TestGridString(t *testing.T) {
	if (Grid{8, 8}).String() != "8x8" {
		t.Fatal("String format")
	}
	if (Grid{4, 8}).Tiles() != 32 {
		t.Fatal("Tiles")
	}
}

func TestExtractReassembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(1, 3, 12, 8)
	x.RandN(rng, 1)
	g := Grid{Rows: 3, Cols: 2}
	tiles := g.Layout(12, 8)
	parts := make([]*tensor.Tensor, len(tiles))
	for i, tl := range tiles {
		parts[i] = ExtractTile(x, tl)
	}
	back := Reassemble(parts, g)
	if !back.Equal(x, 0) {
		t.Fatal("Reassemble(ExtractTile...) must reproduce the image")
	}
}

func TestExtractReassembleNonDivisible(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(1, 2, 7, 5)
	x.RandN(rng, 1)
	g := Grid{Rows: 2, Cols: 3}
	tiles := g.Layout(7, 5)
	parts := make([]*tensor.Tensor, len(tiles))
	for i, tl := range tiles {
		parts[i] = ExtractTile(x, tl)
	}
	if !Reassemble(parts, g).Equal(x, 0) {
		t.Fatal("non-divisible round trip failed")
	}
}

func TestSplitMergeBatchRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Grid{Rows: 1 + rng.Intn(4), Cols: 1 + rng.Intn(4)}
		n := 1 + rng.Intn(3)
		c := 1 + rng.Intn(3)
		h := g.Rows * (1 + rng.Intn(4))
		w := g.Cols * (1 + rng.Intn(4))
		x := tensor.New(n, c, h, w)
		x.RandN(rng, 1)
		y := MergeBatch(SplitBatch(x, g), g, n)
		return y.Equal(x, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitBatchIndivisiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SplitBatch(tensor.New(1, 1, 7, 8), Grid{Rows: 2, Cols: 2})
}

func TestSplitBatchMatchesExtractTile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(1, 2, 8, 8)
	x.RandN(rng, 1)
	g := Grid{Rows: 2, Cols: 2}
	batch := SplitBatch(x, g)
	tiles := g.Layout(8, 8)
	for i, tl := range tiles {
		ref := ExtractTile(x, tl)
		got := tensor.FromSlice(
			batch.Data[i*2*4*4:(i+1)*2*4*4], 1, 2, 4, 4)
		if !got.Equal(ref, 0) {
			t.Fatalf("tile %d differs between SplitBatch and ExtractTile", i)
		}
	}
}

func TestHaloMargin(t *testing.T) {
	// Two 3x3 stride-1 convs: margin 1+1 = 2.
	m := HaloMargin([]LayerGeom{{3, 1}, {3, 1}})
	if m != 2 {
		t.Fatalf("margin = %d, want 2", m)
	}
	// conv3x3 then pool2: backward: pool need 0*2+0... walk: start 0;
	// pool(k2,s2): 0*2 + (2-1)/2 = 0; conv(3,1): 0 + 1 = 1.
	m = HaloMargin([]LayerGeom{{3, 1}, {2, 2}})
	if m != 1 {
		t.Fatalf("margin = %d, want 1", m)
	}
	// conv, pool, conv: conv needs 1; pool doubles: 2; first conv adds 1 → 3.
	m = HaloMargin([]LayerGeom{{3, 1}, {2, 2}, {3, 1}})
	if m != 3 {
		t.Fatalf("margin = %d, want 3", m)
	}
	if Downsample([]LayerGeom{{3, 1}, {2, 2}, {3, 1}, {2, 2}}) != 4 {
		t.Fatal("Downsample wrong")
	}
}

// buildConvStack creates a small conv/pool network and its geometry.
func buildConvStack(seed int64) (*nn.Sequential, []LayerGeom) {
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewSequential("stack",
		nn.NewConv2D("c1", 2, 4, 3, 3, 1, 1, rng),
		nn.NewReLU("r1"),
		nn.NewMaxPool2D("p1", 2, 2),
		nn.NewConv2D("c2", 4, 4, 3, 3, 1, 1, rng),
		nn.NewReLU("r2"),
	)
	geom := []LayerGeom{{3, 1}, {2, 2}, {3, 1}}
	return net, geom
}

func TestRunWithHaloIsExact(t *testing.T) {
	net, geom := buildConvStack(11)
	rng := rand.New(rand.NewSource(12))
	x := tensor.New(1, 2, 16, 16)
	x.RandN(rng, 1)
	full := net.Forward(x, false)
	for _, g := range []Grid{{2, 2}, {4, 4}, {2, 4}} {
		tiled := RunWithHalo(net, x, g, geom)
		if !tiled.Equal(full, 1e-4) {
			t.Fatalf("halo partition %v must be numerically exact", g)
		}
	}
}

func TestRunFDSPApproximatesFullRun(t *testing.T) {
	net, _ := buildConvStack(13)
	rng := rand.New(rand.NewSource(14))
	x := tensor.New(1, 2, 16, 16)
	x.RandN(rng, 1)
	full := net.Forward(x, false)
	tiled := RunFDSP(net, x, Grid{2, 2})
	if !tiled.SameShape(full) {
		t.Fatalf("FDSP output shape %v, want %v", tiled.Shape, full.Shape)
	}
	if tiled.Equal(full, 1e-6) {
		t.Fatal("FDSP zero-padding should perturb border outputs (else the test is vacuous)")
	}
	// Pixels whose receptive field never crosses a tile border must be
	// exact. Output pixel p (pool coords) needs input rows [2p-3, 2p+4];
	// for tile (0,0) (input rows 0..7) that holds for p ≤ 1, and for tile
	// (1,1) (input rows 8..15) for p ≥ 6 — so (1,1) and (6,6) are interior.
	var worstInterior float64
	for ch := 0; ch < full.Shape[1]; ch++ {
		for _, pos := range [][2]int{{1, 1}, {6, 6}, {1, 6}, {6, 1}} {
			d := math.Abs(float64(full.At(0, ch, pos[0], pos[1]) - tiled.At(0, ch, pos[0], pos[1])))
			if d > worstInterior {
				worstInterior = d
			}
		}
	}
	if worstInterior > 1e-4 {
		t.Fatalf("tile-interior outputs should match the full run, worst diff %v", worstInterior)
	}
}

func TestFrontLayerForwardMatchesPerTileRun(t *testing.T) {
	net, _ := buildConvStack(15)
	g := Grid{2, 2}
	front := NewFrontLayer("front", g, net)
	rng := rand.New(rand.NewSource(16))
	x := tensor.New(1, 2, 16, 16)
	x.RandN(rng, 1)
	got := front.Forward(x, false)
	want := RunFDSP(net, x, g)
	if !got.Equal(want, 1e-5) {
		t.Fatal("FrontLayer batched execution must equal per-tile execution")
	}
}

func TestFrontLayerGradientFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inner := nn.NewSequential("inner", nn.NewConv2D("c", 1, 2, 3, 3, 1, 1, rng))
	front := NewFrontLayer("front", Grid{2, 2}, inner)
	x := tensor.New(1, 1, 8, 8)
	x.RandN(rng, 1)
	y := front.Forward(x, true)
	grad := tensor.New(y.Shape...)
	grad.Fill(1)
	dx := front.Backward(grad)
	if !dx.SameShape(x) {
		t.Fatalf("input gradient shape %v", dx.Shape)
	}
	// conv weight gradient must be non-zero (gradient reached the params)
	var nz bool
	for _, v := range front.Params()[0].Grad.Data {
		if v != 0 {
			nz = true
			break
		}
	}
	if !nz {
		t.Fatal("no gradient reached the inner conv weights")
	}
}

// Property: FDSP with a 1x1 grid is exactly the full run.
func TestFDSPTrivialGridIsExact(t *testing.T) {
	net, _ := buildConvStack(18)
	rng := rand.New(rand.NewSource(19))
	x := tensor.New(1, 2, 8, 8)
	x.RandN(rng, 1)
	full := net.Forward(x, false)
	tiled := RunFDSP(net, x, Grid{1, 1})
	if !tiled.Equal(full, 0) {
		t.Fatal("1x1 FDSP must be bit-identical to the full run")
	}
}
