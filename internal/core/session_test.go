package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// TestSessionReconnectRevivesNode kills one node's connection, hands the
// Central a dialer that produces a fresh Pipe-backed worker, and asserts
// the node re-enters the allocation within a few images.
func TestSessionReconnectRevivesNode(t *testing.T) {
	cfg := models.VGGSim()
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	m, err := models.Build(cfg, opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	redial := func(ctx context.Context) (Conn, error) {
		a, b := Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = NewWorker(1, m).Serve(context.Background(), b)
		}()
		return a, nil
	}
	met := NewMetrics(telemetry.NewRegistry())
	c, conns, stop := buildRuntimeConns(t, m, 2, 5*time.Second, func(cfg *CentralConfig) {
		cfg.Metrics, cfg.Dialers = met, []Dialer{redial, nil}
	})
	// Shutdown closes the reconnected conns, which is what lets the
	// dialer-spawned workers exit — so stop must run before wg.Wait.
	defer func() { stop(); wg.Wait() }()

	rng := rand.New(rand.NewSource(31))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	want := m.Net.Forward(x, false)

	if _, _, err := c.Infer(x); err != nil {
		t.Fatal(err)
	}
	conns[0].Close() // transport failure; the session must redial

	// The supervisor notices the dead conn, drains, and redials with
	// backoff; wait for the reconnect to land before probing allocation.
	deadline := time.Now().Add(5 * time.Second)
	for met.Reconnects.With(nodeLabel(0)).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never reconnected through the dialer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	revived := false
	for time.Now().Before(deadline) {
		out, st, err := c.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if st.TilesMissed == 0 && !out.Equal(want, 1e-4) {
			t.Fatal("inference diverged from local execution during failover")
		}
		if st.Alloc[0] > 0 && st.TilesMissed == 0 {
			revived = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !revived {
		t.Fatal("node 0 never served tiles again after reconnect")
	}
}

// TestInferAsyncOverlap keeps several images in flight at once and
// verifies each handle resolves to the same output as local execution.
func TestInferAsyncOverlap(t *testing.T) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	c, m, stop := buildRuntime(t, opt, 2, 5*time.Second)
	defer stop()

	rng := rand.New(rand.NewSource(32))
	const n = 4
	inputs := make([]*tensor.Tensor, n)
	handles := make([]*Inflight, n)
	for i := range inputs {
		inputs[i] = tensor.New(1, 3, 32, 32)
		inputs[i].RandN(rng, 1)
		h, err := c.InferAsync(context.Background(), inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		out, st, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if st.TilesMissed != 0 {
			t.Fatalf("image %d missed %d tiles with a generous deadline", i, st.TilesMissed)
		}
		want := m.Net.Forward(inputs[i], false)
		if !out.Equal(want, 1e-4) {
			t.Fatalf("image %d: overlapped inference diverged from local execution", i)
		}
	}
}

// TestPipelineOrderedResults streams images through a bounded Pipeline
// and checks results come back in submission order with correct outputs.
func TestPipelineOrderedResults(t *testing.T) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	c, m, stop := buildRuntime(t, opt, 2, 5*time.Second)
	defer stop()

	p := NewPipeline(c, 2)
	if cap(p.sem) != 2 {
		t.Fatalf("depth = %d, want 2", cap(p.sem))
	}

	rng := rand.New(rand.NewSource(33))
	const n = 6
	inputs := make([]*tensor.Tensor, n)
	in := make(chan *tensor.Tensor)
	go func() {
		defer close(in)
		for i := 0; i < n; i++ {
			inputs[i] = tensor.New(1, 3, 32, 32)
			inputs[i].RandN(rng, 1)
			in <- inputs[i]
		}
	}()

	next := 0
	for r := range p.Run(context.Background(), in) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Index != next {
			t.Fatalf("result index %d, want %d (results must preserve submission order)", r.Index, next)
		}
		want := m.Net.Forward(inputs[r.Index], false)
		if !r.Out.Equal(want, 1e-4) {
			t.Fatalf("image %d: pipelined inference diverged from local execution", r.Index)
		}
		next++
	}
	if next != n {
		t.Fatalf("got %d results, want %d", next, n)
	}
	if len(p.sem) != 0 {
		t.Fatalf("pipeline still holds %d admission slots after drain", len(p.sem))
	}
}

// TestInferContextCancellation: cancelling the caller's context while
// results are pending must return promptly with the context error, not
// sit out the full T_L deadline.
func TestInferContextCancellation(t *testing.T) {
	cfg := models.VGGSim()
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	m, err := models.Build(cfg, opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]Conn, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		a, b := Pipe()
		conns[i] = a
		w := NewWorker(i+1, m)
		w.SetDelay(time.Second) // results won't arrive before the cancel
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Serve(context.Background(), b)
		}()
	}
	c, err := NewCentral(m, conns, 30*time.Second, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Shutdown(); wg.Wait() }()

	rng := rand.New(rand.NewSource(34))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = c.InferContext(ctx, x)
	if err == nil {
		t.Fatal("cancelled InferContext must return an error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; the T_L deadline leaked through", elapsed)
	}
}

// TestStaleResultsCounted: results landing after T_L settled their tiles
// must be dropped and counted, not delivered to a dead collector.
func TestStaleResultsCounted(t *testing.T) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	met := NewMetrics(telemetry.NewRegistry())
	c, _, stop := buildRuntime(t, opt, 2, time.Nanosecond, func(cfg *CentralConfig) { cfg.Metrics = met })
	defer stop()

	rng := rand.New(rand.NewSource(35))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	_, st, err := c.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if st.TilesMissed == 0 {
		t.Skip("scheduler beat a 1ns deadline — cannot force stale results")
	}
	deadline := time.Now().Add(2 * time.Second)
	for met.StaleResults.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("overdue results never hit the stale counter")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
