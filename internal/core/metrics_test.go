package core

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// buildInstrumentedRuntime mirrors buildRuntime but shares one Metrics
// bundle between the Central and every Worker, plus a Trace.
func buildInstrumentedRuntime(t *testing.T, n int) (*Central, *Metrics, *telemetry.Trace, func()) {
	t.Helper()
	cfg := models.VGGSim()
	m, err := models.Build(cfg, models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)
	trace := telemetry.NewTrace()
	conns := make([]Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		a, b := Pipe()
		conns[i] = a
		w := NewWorker(i+1, m)
		w.Metrics = met
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Serve(context.Background(), b)
		}()
	}
	c, err := CentralConfig{Model: m, Conns: conns, TL: 5 * time.Second, Gamma: 0.9, Metrics: met, Trace: trace}.Start()
	if err != nil {
		t.Fatal(err)
	}
	return c, met, trace, func() { c.Shutdown(); wg.Wait() }
}

// TestInferRecordsMetrics runs real inferences over Pipe transports and
// checks the whole metric chain: image counters, per-node tile counters,
// latency histograms, worker-side task counts, and wire frame/byte
// accounting — all through the public registry Value/Snapshot API.
func TestInferRecordsMetrics(t *testing.T) {
	const nodes, images, tiles = 4, 3, 16
	c, met, trace, stop := buildInstrumentedRuntime(t, nodes)
	defer stop()

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < images; i++ {
		x := tensor.New(1, 3, 32, 32)
		x.RandN(rng, 1)
		if _, _, err := c.Infer(x); err != nil {
			t.Fatal(err)
		}
	}

	reg := met.Registry
	mustValue := func(name string, want float64, lv ...string) {
		t.Helper()
		v, ok := reg.Value(name, lv...)
		if !ok || v != want {
			t.Fatalf("%s%v = %v (ok=%v), want %v", name, lv, v, ok, want)
		}
	}
	mustValue("adcnn_central_images_total", images)
	mustValue("adcnn_central_tiles_missed_total", 0)

	var dispatched, received, tasks float64
	for k := 0; k < nodes; k++ {
		d, _ := reg.Value("adcnn_central_tiles_dispatched_total", nodeLabel(k))
		r, _ := reg.Value("adcnn_central_tiles_received_total", nodeLabel(k))
		w, _ := reg.Value("adcnn_worker_tasks_total", nodeLabel(k+1))
		if d == 0 || r != d || w != d {
			t.Fatalf("node %d: dispatched=%v received=%v tasks=%v", k, d, r, w)
		}
		dispatched += d
		received += r
		tasks += w
	}
	if dispatched != images*tiles {
		t.Fatalf("dispatched %v tiles, want %d", dispatched, images*tiles)
	}

	if h := c.metrics.ImageLatency.Snapshot(); h.Count != images || h.Sum <= 0 {
		t.Fatalf("image latency count=%d sum=%v", h.Count, h.Sum)
	}
	if h := c.metrics.TileRoundTrip.Snapshot(); h.Count != images*tiles {
		t.Fatalf("tile roundtrip count=%d, want %d", h.Count, images*tiles)
	}
	if h := c.metrics.WorkerProcess.Snapshot(); h.Count != images*tiles {
		t.Fatalf("worker process count=%d, want %d", h.Count, images*tiles)
	}

	// Wire accounting, both sides of the Pipe: the central sent
	// images*tiles tasks and workers received all of them; results flow
	// the other way. Byte counters must cover at least the frame headers.
	mustValue("adcnn_wire_frames_total", images*tiles, "task", "sent")
	mustValue("adcnn_wire_frames_total", images*tiles, "task", "recv")
	mustValue("adcnn_wire_frames_total", images*tiles, "result", "sent")
	mustValue("adcnn_wire_frames_total", images*tiles, "result", "recv")
	if v, _ := reg.Value("adcnn_wire_bytes_total", "task", "sent"); v < images*tiles*frameOverhead {
		t.Fatalf("task bytes = %v, below framing floor", v)
	}

	// Algorithm 2's speed estimates must be published per node.
	for k := 0; k < nodes; k++ {
		if v, ok := reg.Value("adcnn_sched_speed", nodeLabel(k)); !ok || v <= 0 {
			t.Fatalf("s_%d gauge = %v (ok=%v)", k, v, ok)
		}
	}
	if v, ok := reg.Value("adcnn_sched_allocations_total"); !ok || v != images {
		t.Fatalf("allocations = %v (ok=%v), want %d", v, ok, images)
	}

	// The trace must carry per-tile spans on worker rows and one span
	// per image on the central row.
	tileSpans, imageSpans := 0, 0
	for _, ev := range trace.Events() {
		if ev.Ph != "X" {
			continue
		}
		switch {
		case strings.HasPrefix(ev.Name, "tile "):
			tileSpans++
			if ev.TID < 1 || ev.TID > nodes {
				t.Fatalf("tile span on tid %d", ev.TID)
			}
		case strings.HasPrefix(ev.Name, "image "):
			imageSpans++
		}
	}
	if tileSpans != images*tiles || imageSpans != images {
		t.Fatalf("trace spans: tiles=%d images=%d, want %d/%d",
			tileSpans, imageSpans, images*tiles, images)
	}
}

// errConn fails Recv with a non-EOF error, simulating a mid-stream
// transport failure.
type errConn struct{ err error }

func (c errConn) Send(*Message) error     { return nil }
func (c errConn) Recv() (*Message, error) { return nil, c.err }
func (c errConn) Close() error            { return nil }

// TestWorkerServeDisconnectSemantics pins satellite 1: clean EOF returns
// nil and bumps the eof counter; a mid-stream error is returned to the
// caller and bumps the error counter.
func TestWorkerServeDisconnectSemantics(t *testing.T) {
	cfg := models.VGGSim()
	m, err := models.Build(cfg, models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)

	// Clean EOF: close the central side of a pipe.
	a, b := Pipe()
	w := NewWorker(1, m)
	w.Metrics = met
	done := make(chan error, 1)
	go func() { done <- w.Serve(context.Background(), b) }()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("clean EOF must return nil, got %v", err)
	}
	if v, _ := reg.Value("adcnn_worker_recv_eof_total"); v != 1 {
		t.Fatalf("eof counter = %v, want 1", v)
	}

	// Mid-stream failure: a Conn whose Recv breaks.
	broken := errors.New("wire torn")
	if err := w.Serve(context.Background(), errConn{err: broken}); !errors.Is(err, broken) {
		t.Fatalf("mid-stream failure must be returned, got %v", err)
	}
	if v, _ := reg.Value("adcnn_worker_recv_errors_total"); v != 1 {
		t.Fatalf("error counter = %v, want 1", v)
	}
	// io.EOF through a custom Conn is still a clean disconnect.
	if err := w.Serve(context.Background(), errConn{err: io.EOF}); err != nil {
		t.Fatalf("EOF from any transport must return nil, got %v", err)
	}
	if v, _ := reg.Value("adcnn_worker_recv_eof_total"); v != 2 {
		t.Fatalf("eof counter = %v, want 2", v)
	}
}
