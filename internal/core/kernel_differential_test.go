package core

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/tensor"
)

// TestPipeTiledForwardIsBitExactF32 is the end-to-end reading of the GEMM
// engine's determinism rule. In the whole-image forward a tile's pixels
// are columns in the middle of wide products, computed on however many
// threads the product earns; on a node they are a narrow product of their
// own, cut into different micro-kernel tiles against different edges.
// Every element is still the same chain of steps in ascending k, so f32
// images tiled through two NodeServers must equal Model.Net.Forward with
// a worst error of exactly 0 — any tolerance here would hide a kernel
// whose result depends on where a tile falls.
func TestPipeTiledForwardIsBitExactF32(t *testing.T) {
	old := runtime.GOMAXPROCS(2) // let the wide products split
	defer runtime.GOMAXPROCS(old)
	for _, tc := range []struct {
		cfg  models.Config
		grid fdsp.Grid
	}{
		{models.ResNetSim(), fdsp.Grid{Rows: 2, Cols: 2}},
		{models.VGGSim(), fdsp.Grid{Rows: 2, Cols: 2}},
		{models.VGGSim(), fdsp.Grid{Rows: 4, Cols: 4}},
	} {
		m, err := models.Build(tc.cfg, models.Options{Grid: tc.grid}, 11)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		conns := make([]Conn, 2)
		for i := range conns {
			a, b := Pipe()
			conns[i] = a
			ns := NewNodeServer(NewWorker(i+1, m), 0)
			wg.Add(1)
			go func() { defer wg.Done(); _ = ns.ServeConn(ctx, b) }()
		}
		c, err := NewCentral(m, conns, 10*time.Second, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(12))
		for img := 0; img < 3; img++ {
			x := tensor.New(1, tc.cfg.InputC, tc.cfg.InputH, tc.cfg.InputW)
			x.RandN(rng, 1)
			want := m.Net.Forward(x, false)
			got, st, err := c.Infer(x)
			if err != nil {
				t.Fatal(err)
			}
			if st.TilesMissed != 0 {
				t.Fatalf("%s %v: missed %d tiles", tc.cfg.Name, tc.grid, st.TilesMissed)
			}
			var worst float64
			for i, v := range got.Data {
				if d := float64(v - want.Data[i]); d > worst {
					worst = d
				} else if -d > worst {
					worst = -d
				}
			}
			if worst != 0 || !got.SameShape(want) {
				t.Fatalf("%s %v image %d: worst |distributed - local| = %g, want exactly 0", tc.cfg.Name, tc.grid, img, worst)
			}
		}
		c.Shutdown()
		cancel()
		wg.Wait()
	}
}
