package models

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"adcnn/internal/fdsp"
	"adcnn/internal/nn"
	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// freshTensor is what one tensor.New costs: the header (its shape
// inline) and the data.
const freshTensor = 2

// chainAllocs is what an inference forward of layers may allocate: a
// fresh answer per block (a nested Sequential or Residual, whose answer
// is fresh inside a chain as it is alone), a fresh answer for the chain
// itself when a leaf layer makes it, and the header of the view a
// leading Flatten takes of the chain's input. Every other output comes
// from the tensor pool and goes back.
func chainAllocs(layers []nn.Layer) float64 {
	if len(layers) == 0 {
		return 0
	}
	n, leafAnswer := 0.0, false
	for _, l := range layers {
		switch l.(type) {
		case *nn.Sequential, *nn.Residual:
			n += freshTensor
			leafAnswer = false
		case *nn.ReLU, *nn.ClippedReLU, *nn.Flatten:
			// In place on what the step before made.
		default:
			leafAnswer = true
		}
	}
	if leafAnswer {
		n += freshTensor
	}
	if _, ok := layers[0].(*nn.Flatten); ok {
		n++
	}
	return n
}

// TestZooInferenceAllocatesOnlyAnswers: for every zoo model, in f32 and
// after QuantizeInt8, the three inference entries the runtime calls —
// Front.Forward on a tile (Conv node), ForwardFrontLevels on a quantized
// tile (Conv node, int8 uplink) and Back.Forward on the merged map
// (Central) — allocate their blocks' answers and nothing else (see
// chainAllocs). The levels entry's conv output comes from the pool too;
// the rest of its block 0 runs layer by layer, each layer's own Forward
// allocating its output. One worker, so no GEMM fans out; no GC while
// counting, so no pool is emptied mid-count.
func TestZooInferenceAllocatesOnlyAnswers(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, cfg := range append(SimScale(), ResNet18()) {
		grid := fdsp.Grid{Rows: 2, Cols: 2}
		if cfg.InputW%grid.Cols != 0 {
			grid.Cols = 1 // the 1-D text model
		}
		m, err := Build(cfg, Options{Grid: grid}, 5)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		runs := 20
		if cfg.InputH > 64 {
			runs = 3 // full scale
		}
		rng := rand.New(rand.NewSource(6))
		tile := tensor.New(1, cfg.InputC, cfg.InputH/grid.Rows, cfg.InputW/grid.Cols)
		tile.RandN(rng, 1)
		fo := m.FrontOutputShape()
		merged := tensor.New(1, fo[0], fo[1], fo[2])
		merged.RandN(rng, 1)
		count := func(f func()) float64 {
			f() // prime the pools
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			return testing.AllocsPerRun(runs, f)
		}
		for _, mode := range []string{"f32", "int8"} {
			if mode == "int8" {
				if _, err := m.QuantizeInt8(); err != nil {
					t.Logf("%s: no int8 mode: %v", cfg.Name, err)
					continue
				}
			}
			check := func(entry string, got, want float64) {
				t.Helper()
				if got != want {
					t.Errorf("%s %s: %s allocates %v per call, want %v", cfg.Name, mode, entry, got, want)
				}
			}
			check("Front.Forward", count(func() { m.Front.Forward(tile, false) }), chainAllocs(m.Front.Layers))
			check("Back.Forward", count(func() { m.Back.Forward(merged, false) }), chainAllocs(m.Back.Layers))
			if mode != "int8" || !m.Int8InputOK() {
				continue
			}
			mn, mx := tensor.MinMax(tile.Data)
			af, err := quant.AffineFor(mn, mx)
			if err != nil {
				t.Fatal(err)
			}
			levels := make([]uint8, tile.Len())
			tensor.QuantizeAffineSlice(levels, tile.Data, af.InvScale(), af.Zero)
			c, h, w := tile.Shape[1], tile.Shape[2], tile.Shape[3]
			block0 := m.Front.Layers[0].(*nn.Sequential).Layers
			want := freshTensor*float64(len(block0)-1) + chainAllocs(m.Front.Layers[1:])
			check("ForwardFrontLevels", count(func() { m.ForwardFrontLevels(levels, c, h, w, af) }), want)
		}
	}
}
