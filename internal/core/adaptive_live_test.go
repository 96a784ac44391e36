package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/tensor"
)

// TestLiveRuntimeAdaptsToSlowWorker runs the real distributed protocol
// with one artificially slowed Conv node. Algorithm 2's EWMA (driven by
// results received within T_L) must shift tiles toward the fast nodes —
// the live-runtime version of Figure 15.
func TestLiveRuntimeAdaptsToSlowWorker(t *testing.T) {
	cfg := models.VGGSim()
	m, err := models.Build(cfg, models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	conns := make([]Conn, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		a, b := Pipe()
		conns[i] = a
		w := NewWorker(i+1, m)
		if i == workers-1 {
			w.SetDelay(80 * time.Millisecond) // last node is far slower per tile
		}
		wg.Add(1)
		go func() { defer wg.Done(); _ = w.Serve(context.Background(), b) }()
	}
	// T_L chosen so the fast nodes always make it and the slow node's
	// later tiles miss the window (its tiles are zero-filled — accuracy
	// cost — but the scheduler learns).
	c, err := NewCentral(m, conns, 250*time.Millisecond, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Shutdown(); wg.Wait() }()

	rng := rand.New(rand.NewSource(11))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)

	var last InferStats
	for i := 0; i < 8; i++ {
		_, st, err := c.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		last = st
	}
	slow := last.Alloc[workers-1]
	for k := 0; k < workers-1; k++ {
		if last.Alloc[k] <= slow {
			t.Fatalf("fast node %d got %d tiles, not more than slow node's %d: %v",
				k+1, last.Alloc[k], slow, last.Alloc)
		}
	}
	// A node slow enough to keep missing the window may legitimately decay
	// to zero work (the paper's failure semantics), so we only require the
	// allocation to remain complete.
	if last.Alloc.Total() != 16 {
		t.Fatalf("tiles lost: %v", last.Alloc)
	}
}
