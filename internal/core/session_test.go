package core

import (
	"context"
	"errors"
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
	for c.DebugSessions()[0].Epochs < 2 {
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

// TestPipelineOrderedResults streams images through a bounded Pipeline,
// waits on them in submission order and checks every output and that the
// admission slots drain. A Submit that waits for a slot of a full
// pipeline returns its context's error when the context ends, and takes
// no slot.
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
	for i := range inputs {
		inputs[i] = tensor.New(1, 3, 32, 32)
		inputs[i].RandN(rng, 1)
	}
	next := 0
	for h := range submitAll(t, p, inputs) {
		out, _, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		want := m.Net.Forward(inputs[next], false)
		if !out.Equal(want, 1e-4) {
			t.Fatalf("image %d: pipelined inference diverged from local execution", next)
		}
		next++
	}
	if next != n {
		t.Fatalf("got %d results, want %d", next, n)
	}
	if len(p.sem) != 0 {
		t.Fatalf("pipeline still holds %d admission slots after drain", len(p.sem))
	}

	var held []*Inflight
	for _, x := range inputs[:2] {
		h, err := p.Submit(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, h)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Submit(ctx, inputs[2]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("submit on a full pipeline returned %v, want %v", err, context.DeadlineExceeded)
	}
	for _, h := range held {
		if _, _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if len(p.sem) != 0 {
		t.Fatalf("pipeline holds %d admission slots after a cancelled submit", len(p.sem))
	}
}

// submitAll feeds xs through p from its own goroutine, so it submits as
// admission slots free up while the caller Waits on the handles in
// submission order; at most p's depth images overlap.
func submitAll(t *testing.T, p *Pipeline, xs []*tensor.Tensor) <-chan *Inflight {
	handles := make(chan *Inflight, len(xs))
	go func() {
		defer close(handles)
		for _, x := range xs {
			h, err := p.Submit(context.Background(), x)
			if err != nil {
				t.Error(err)
				return
			}
			handles <- h
		}
	}()
	return handles
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
		w, _ := slowWorker(i+1, m, time.Second) // results won't arrive before the cancel
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
// must be dropped and recorded as stale flight events, not delivered to
// a dead collector. The worker's hold puts every result well past the
// 1ns T_L, so every tile misses and comes back stale.
func TestStaleResultsCounted(t *testing.T) {
	m, err := models.Build(models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, b := Pipe()
	w, _ := slowWorker(1, m, 50*time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = w.Serve(context.Background(), b) }()
	flight := telemetry.NewFlightRecorder(0)
	c, err := CentralConfig{
		Model: m, Conns: []Conn{a}, TL: time.Nanosecond, Gamma: 0.9,
		Metrics: NewMetrics(telemetry.NewRegistry()), Flight: flight,
	}.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Shutdown(); wg.Wait() }()

	rng := rand.New(rand.NewSource(35))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	_, st, err := c.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if st.TilesMissed != 4 {
		t.Fatalf("missed %d of 4 tiles that cannot beat T_L", st.TilesMissed)
	}
	stale := func() (n int) {
		for _, ev := range flight.Events() {
			if ev.Kind == "stale" {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for stale() < st.TilesMissed {
		if time.Now().After(deadline) {
			t.Fatalf("%d overdue results produced %d stale flight events", st.TilesMissed, stale())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSettleBooksDeliveredTiles: when T_L has already expired but every
// tile's result is waiting in the collector, settle books them all — a
// tile that arrived is never zero-filled.
func TestSettleBooksDeliveredTiles(t *testing.T) {
	c, m, stop := buildRuntime(t, models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 1, time.Second)
	defer stop()
	full := m.FrontOutputShape()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		img := c.imageID.Add(1)
		tiles := c.grid.Layout(32, 32)
		h := &Inflight{c: c, parent: context.Background(), cctx: expired, cancelTL: cancel,
			img: img, tiles: tiles, col: newImageCollector(img, len(tiles)), start: time.Now()}
		for ti := range tiles {
			h.col.ch <- arrival{tile: ti, t: tensor.New(1, full[0], full[1]/2, full[2]/2)}
		}
		if _, st, err := h.Wait(); err != nil || st.TilesMissed != 0 {
			t.Fatalf("image %d: %d of %d delivered tiles counted missed (err %v)", i, st.TilesMissed, len(tiles), err)
		}
	}
}
