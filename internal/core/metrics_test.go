package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/sched"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// buildInstrumentedRuntime mirrors buildRuntime with the Central's
// Metrics, a flight recorder and a Trace, and the Workers'
// WorkerMetrics, both bundles on one registry.
func buildInstrumentedRuntime(t *testing.T, n int) (*Central, *Metrics, *WorkerMetrics, *telemetry.Trace, func()) {
	t.Helper()
	cfg := models.VGGSim()
	m, err := models.Build(cfg, models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	met, wm := NewMetrics(reg), NewWorkerMetrics(reg)
	trace := telemetry.NewTrace()
	conns := make([]Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		a, b := Pipe()
		conns[i] = a
		w := NewWorker(i+1, m)
		w.Metrics = wm
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Serve(context.Background(), b)
		}()
	}
	c, err := CentralConfig{Model: m, Conns: conns, TL: 5 * time.Second, Gamma: 0.9, Metrics: met, Trace: trace,
		Flight: telemetry.NewFlightRecorder(0)}.Start()
	if err != nil {
		t.Fatal(err)
	}
	return c, met, wm, trace, func() { c.Shutdown(); wg.Wait() }
}

// TestLinkRTTGaugeFromTileExchanges: the RTT gauge is published from the
// same task→result exchanges that feed /debug/sessions, so after traffic
// every node exports the estimator's round trip rather than 0.
func TestLinkRTTGaugeFromTileExchanges(t *testing.T) {
	const nodes = 2
	c, met, _, _, stop := buildInstrumentedRuntime(t, nodes)
	defer stop()
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(4)), 1)
	for i := 0; i < 20; i++ {
		if _, _, err := c.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	for k, s := range c.DebugSessions() {
		v, ok := met.Registry.Value("adcnn_central_link_rtt_seconds", nodeLabel(k))
		if !ok || v <= 0 || v != float64(s.RTTNs)/1e9 {
			t.Fatalf("node %d: rtt gauge %v (ok=%v), want %v > 0 from the session's estimator", k, v, ok, float64(s.RTTNs)/1e9)
		}
	}
}

// TestWorkerProcessTimesComputeAndEncode: adcnn_worker_process_seconds
// is Front+Boundary+encode, not the tile's time on the node. Two tasks
// sent back to back to a node holding each one 20 ms leave the second
// waiting out the first in the queue; counting that wait would put the
// sum near 3 holds.
func TestWorkerProcessTimesComputeAndEncode(t *testing.T) {
	const hold = 20 * time.Millisecond
	m, err := models.Build(models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := slowWorker(1, m, hold)
	w.Metrics = NewWorkerMetrics(telemetry.NewRegistry())
	a, b := Pipe()
	defer a.Close()
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Serve(context.Background(), b) }()

	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(15)), 1)
	tl := m.Opt.Grid.Layout(32, 32)[0]
	for tile := uint32(0); tile < 2; tile++ {
		task := &Message{Kind: KindTask, ImageID: 1, TileID: tile, Payload: AppendTensor(nil, fdsp.ExtractTile(x, tl))}
		if err := a.Send(task); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := a.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	<-done
	h := w.Metrics.Process.Snapshot()
	t.Logf("process histogram: %d tiles, sum %.1fms for a %v hold", h.Count, h.Sum*1e3, hold)
	if h.Count != 2 {
		t.Fatalf("process histogram counts %d tiles, want 2", h.Count)
	}
	if limit := 2.5 * hold.Seconds(); h.Sum >= limit {
		t.Errorf("process histogram sum %.1fms, want under %.1fms: queue wait counted", h.Sum*1e3, limit*1e3)
	}
}

// TestInferRecordsMetrics runs real inferences over Pipe transports and
// checks the whole metric chain: image counters, latency histograms and
// worker-side task counts against the per-node tile tallies of
// InferStats — all through the public registry Value/Snapshot API.
func TestInferRecordsMetrics(t *testing.T) {
	const nodes, images, tiles = 4, 3, 16
	c, met, wm, trace, stop := buildInstrumentedRuntime(t, nodes)
	defer stop()

	rng := rand.New(rand.NewSource(2))
	alloc, received := make([]int, nodes), make([]int, nodes)
	for i := 0; i < images; i++ {
		x := tensor.New(1, 3, 32, 32)
		x.RandN(rng, 1)
		_, st, err := c.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if st.Latency <= 0 {
			t.Fatalf("image %d latency %v", i, st.Latency)
		}
		for k := 0; k < nodes; k++ {
			alloc[k] += st.Alloc[k]
			received[k] += st.Received[k]
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

	dispatched := 0
	for k := 0; k < nodes; k++ {
		w, _ := reg.Value("adcnn_worker_tasks_total", nodeLabel(k+1))
		if alloc[k] == 0 || received[k] != alloc[k] || w != float64(alloc[k]) {
			t.Fatalf("node %d: dispatched=%d received=%d tasks=%v", k, alloc[k], received[k], w)
		}
		dispatched += alloc[k]
	}
	if dispatched != images*tiles {
		t.Fatalf("dispatched %d tiles, want %d", dispatched, images*tiles)
	}
	if h := met.TileRoundTrip.Snapshot(); h.Count != images*tiles {
		t.Fatalf("tile roundtrip count=%d, want %d", h.Count, images*tiles)
	}
	if h := wm.Process.Snapshot(); h.Count != images*tiles {
		t.Fatalf("worker process count=%d, want %d", h.Count, images*tiles)
	}

	// Algorithm 2's speed estimates must be published per node.
	for k := 0; k < nodes; k++ {
		if v, ok := reg.Value("adcnn_sched_speed", nodeLabel(k)); !ok || v <= 0 {
			t.Fatalf("s_%d gauge = %v (ok=%v)", k, v, ok)
		}
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

// TestCentralPublishesSchedulerState: after every image settles, the
// speed gauge holds the driver's Algorithm 2 estimates, and the flight
// ring holds the driver's first decision as a realloc event on image 1.
func TestCentralPublishesSchedulerState(t *testing.T) {
	const nodes = 2
	c, met, _, _, stop := buildInstrumentedRuntime(t, nodes)
	defer stop()
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(5)), 1)
	var first sched.Allocation
	for i := 0; i < 3; i++ {
		_, st, err := c.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = st.Alloc
		}
		for k, s := range c.driver.Speeds() {
			if v, ok := met.Registry.Value("adcnn_sched_speed", nodeLabel(k)); !ok || v != s {
				t.Fatalf("image %d: s_%d gauge = %v (ok=%v), want the driver's %v", i, k, v, ok, s)
			}
		}
	}
	evs := c.flight.Events()
	want := fmt.Sprintf("initial: [] → %v,", first)
	if len(evs) == 0 || evs[0].Kind != "realloc" || evs[0].Image != 1 || evs[0].Tile != -1 ||
		evs[0].Node != -1 || !strings.HasPrefix(evs[0].Detail, want) {
		t.Fatalf("flight ring %+v, want a realloc event %q… on image 1 first", evs, want)
	}
}

// TestTileRoundTripIsBreakdownTotal: the round-trip histogram observes
// each settled tile's Breakdown Total (enqueue → collected, the sum of
// its six phases), and nothing else.
func TestTileRoundTripIsBreakdownTotal(t *testing.T) {
	c, met, _, _, stop := buildInstrumentedRuntime(t, 2)
	defer stop()
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(6)), 1)
	tiles, total := 0, time.Duration(0)
	for i := 0; i < 4; i++ {
		_, st, err := c.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range st.Breakdown.Tiles {
			tiles++
			total += tb.Total
		}
	}
	h := met.TileRoundTrip.Snapshot()
	if h.Count != uint64(tiles) || tiles != 4*16 {
		t.Fatalf("round-trip histogram counts %d tiles, breakdowns hold %d (want 64)", h.Count, tiles)
	}
	if diff := math.Abs(h.Sum - total.Seconds()); diff > float64(tiles)*1e-9 {
		t.Fatalf("round-trip sum %.9fs, breakdown totals %.9fs: off by %.0fns", h.Sum, total.Seconds(), diff*1e9)
	}
}

// errConn fails Recv with a non-EOF error, simulating a mid-stream
// transport failure.
type errConn struct{ err error }

func (c errConn) Send(*Message) error     { return nil }
func (c errConn) Recv() (*Message, error) { return nil, c.err }
func (c errConn) Close() error            { return nil }

// TestWorkerServeDisconnectSemantics: clean EOF returns nil; a
// mid-stream error is returned to the caller.
func TestWorkerServeDisconnectSemantics(t *testing.T) {
	cfg := models.VGGSim()
	m, err := models.Build(cfg, models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Clean EOF: close the central side of a pipe.
	a, b := Pipe()
	w := NewWorker(1, m)
	w.Metrics = NewWorkerMetrics(telemetry.NewRegistry())
	done := make(chan error, 1)
	go func() { done <- w.Serve(context.Background(), b) }()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("clean EOF must return nil, got %v", err)
	}

	// Mid-stream failure: a Conn whose Recv breaks.
	broken := errors.New("wire torn")
	if err := w.Serve(context.Background(), errConn{err: broken}); !errors.Is(err, broken) {
		t.Fatalf("mid-stream failure must be returned, got %v", err)
	}
	// io.EOF through a custom Conn is still a clean disconnect.
	if err := w.Serve(context.Background(), errConn{err: io.EOF}); err != nil {
		t.Fatalf("EOF from any transport must return nil, got %v", err)
	}
}
