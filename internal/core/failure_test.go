package core

import (
	"context"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// TestRuntimeSurvivesWorkerDeath kills one Conv node mid-stream; the
// Central node must mark it dead, re-route its tiles to the survivors,
// and keep producing correct outputs ("this scheme naturally handles the
// Conv node failure", Section 6.3).
func TestRuntimeSurvivesWorkerDeath(t *testing.T) {
	cfg := models.VGGSim()
	opt := models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}}
	m, err := models.Build(cfg, opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	conns := make([]Conn, workers)
	workerSides := make([]Conn, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		a, b := Pipe()
		conns[i] = a
		workerSides[i] = b
		w := NewWorker(i+1, m)
		wg.Add(1)
		go func() { defer wg.Done(); _ = w.Serve(context.Background(), b) }()
	}
	c, err := NewCentral(m, conns, 5*time.Second, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Shutdown(); wg.Wait() }()

	rng := rand.New(rand.NewSource(9))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	want := m.Net.Forward(x, false)

	// Healthy inference first.
	out, st, err := c.Infer(x)
	if err != nil || !out.Equal(want, 1e-4) {
		t.Fatalf("healthy inference failed: %v", err)
	}
	if st.Alloc[1] == 0 {
		t.Fatal("node 2 should have had work before dying")
	}

	// Kill node 2 by closing its connection.
	conns[1].Close()

	// The image right after the death may lose tiles to the zero-fill
	// deadline (the node died holding work); after that, allocation must
	// avoid the dead node entirely and outputs must be exact again.
	deadlineMisses := 0
	for i := 0; i < 4; i++ {
		out, st, err := c.Infer(x)
		if err != nil {
			t.Fatalf("inference %d after death: %v", i, err)
		}
		if st.Alloc[1] != 0 && i > 0 {
			t.Fatalf("inference %d still assigned tiles to the dead node: %v", i, st.Alloc)
		}
		if st.TilesMissed > 0 {
			deadlineMisses++
			continue
		}
		if !out.Equal(want, 1e-4) {
			t.Fatalf("inference %d after death diverged", i)
		}
	}
	if deadlineMisses > 1 {
		t.Fatalf("only the transition image may miss tiles, got %d misses", deadlineMisses)
	}
}

// dyingConn fails — and closes — its connection on the first task frame
// sent after it is armed: the node dies mid-image, with that image's
// tiles already queued on its session.
type dyingConn struct {
	Conn
	armed atomic.Bool
}

func (d *dyingConn) Send(m *Message) error {
	if d.armed.Load() && m.Kind == KindTask {
		d.Conn.Close()
		return io.ErrClosedPipe
	}
	return d.Conn.Send(m)
}

// TestNodeDeathMidImageLosesNoTile: the tiles stranded on a node that
// dies mid-image are redispatched to the survivors, so even the
// transition image misses no tile and equals local execution.
func TestNodeDeathMidImageLosesNoTile(t *testing.T) {
	var dying *dyingConn
	opt := models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}}
	c, m, stop := buildRuntime(t, opt, 4, 5*time.Second, func(cfg *CentralConfig) {
		dying = &dyingConn{Conn: cfg.Conns[1]}
		cfg.Conns[1] = dying
	})
	defer stop()
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	want := m.Net.Forward(x, false)
	for i := 0; i < 3; i++ {
		if i == 1 {
			dying.armed.Store(true)
		}
		got, st, err := c.Infer(x)
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if i < 2 && st.Alloc[1] == 0 {
			t.Fatalf("image %d: node 1 should have been handed tiles", i)
		}
		if i > 0 && st.Received[1] != 0 {
			t.Fatalf("image %d: dead node returned %d tiles", i, st.Received[1])
		}
		if st.TilesMissed != 0 || !got.Equal(want, 1e-4) {
			t.Fatalf("image %d: missed %d tiles; the output must stay exact across the failover", i, st.TilesMissed)
		}
	}
}

// TestRuntimeAllWorkersDead verifies a clean error when no node is left.
func TestRuntimeAllWorkersDead(t *testing.T) {
	cfg := models.VGGSim()
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	m, err := models.Build(cfg, opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Pipe()
	met := NewMetrics(telemetry.NewRegistry(), 0)
	c, err := CentralConfig{Model: m, Conns: []Conn{a}, TL: 100 * time.Millisecond, Gamma: 0.9, Metrics: met}.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	a.Close()
	for deadline := time.Now().Add(2 * time.Second); c.DebugSessions()[0].Alive; {
		if time.Now().After(deadline) {
			t.Fatal("session never noticed its closed connection")
		}
		time.Sleep(time.Millisecond)
	}
	x := tensor.New(1, 3, 32, 32)
	if _, _, err := c.Infer(x); err == nil {
		t.Fatal("inference with every node dead must error")
	}
	// An image whose dispatch failed never existed: it is not counted,
	// and it holds no in-flight slot.
	if n := met.Images.Value(); n != 0 {
		t.Fatalf("images_total = %v after a failed dispatch, want 0", n)
	}
	if n := met.InflightImages.Value(); n != 0 {
		t.Fatalf("inflight_images = %v after a failed dispatch, want 0", n)
	}
}

// TestWaitAfterShutdownFailsFast: an image whose tiles are outstanding
// when the Central shuts down must fail at once — nobody is left to
// deliver them, so waiting out T_L would only return a zero-filled
// answer late and call it a success.
func TestWaitAfterShutdownFailsFast(t *testing.T) {
	m, err := models.Build(models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]Conn, 2)
	var wg sync.WaitGroup
	for i := range conns {
		a, b := Pipe()
		conns[i] = a
		w, _ := slowWorker(i+1, m, 500*time.Millisecond)
		wg.Add(1)
		go func() { defer wg.Done(); _ = w.Serve(context.Background(), b) }()
	}
	c, err := NewCentral(m, conns, 3*time.Second, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.InferAsync(context.Background(), tensor.New(1, 3, 32, 32))
	if err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	start := time.Now()
	out, _, err := h.Wait()
	if err == nil || out != nil {
		t.Fatalf("Wait after Shutdown must fail, got out=%v err=%v", out, err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Wait after Shutdown took %v; it must not wait out T_L", d)
	}
	wg.Wait()
}
