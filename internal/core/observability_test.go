package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// tcpRuntime wires a Central to n real TCP Conv-node servers on
// loopback and returns the Central plus a stop func.
func tcpRuntime(t *testing.T, m *models.Model, n int, tl time.Duration, trace *telemetry.Trace) (*Central, func()) {
	t.Helper()
	var wg sync.WaitGroup
	conns := make([]Conn, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		w := NewWorker(i+1, m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = w.Serve(context.Background(), NewStreamConn(c))
		}()
		dial, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = NewStreamConn(dial)
	}
	c, err := CentralConfig{Model: m, Conns: conns, TL: tl, Gamma: 0.9, Trace: trace}.Start()
	if err != nil {
		t.Fatal(err)
	}
	return c, func() {
		c.Shutdown()
		for _, ln := range listeners {
			ln.Close()
		}
		wg.Wait()
	}
}

// TestTCPTraceMergesBothSides is the tentpole acceptance check: a real
// TCP run with two Conv workers must produce ONE Chrome trace whose
// spans from both sides of the wire — the Central's dispatch/tile/image
// spans and the Conv-side uplink/queue/compute/downlink child spans —
// all carry the same trace ID for a given image.
func TestTCPTraceMergesBothSides(t *testing.T) {
	m, err := models.Build(models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	trace := telemetry.NewTrace()
	c, stop := tcpRuntime(t, m, 2, 10*time.Second, trace)
	defer stop()

	rng := rand.New(rand.NewSource(11))
	var stats []InferStats
	for i := 0; i < 2; i++ {
		x := tensor.New(1, 3, 32, 32)
		x.RandN(rng, 1)
		_, st, err := c.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if st.TraceID == 0 {
			t.Fatal("InferStats must carry the trace ID")
		}
		stats = append(stats, st)
	}
	if stats[0].TraceID == stats[1].TraceID {
		t.Fatal("distinct images must get distinct trace IDs")
	}

	// Write the trace file and read it back: the artifact itself is the
	// acceptance object, not just the in-memory events.
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := trace.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := telemetry.ReadTraceFile(f)
	if err != nil {
		t.Fatalf("trace file must parse back: %v", err)
	}

	convPhases := map[string]bool{"uplink": true, "queue": true, "compute": true, "downlink": true}
	for _, st := range stats {
		id := TraceIDString(st.TraceID)
		centralSide, convSide := 0, 0
		convTIDs := map[int]bool{}
		for _, ev := range evs {
			tid, ok := ev.Args["trace_id"].(string)
			if !ok || tid != id {
				continue
			}
			if ev.TID == 0 {
				centralSide++
			}
			if ev.Cat == "conv" && convPhases[ev.Name] {
				convSide++
				convTIDs[ev.TID] = true
			}
		}
		if centralSide == 0 {
			t.Fatalf("trace %s has no Central-side spans", id)
		}
		// 4 tiles × 4 phase spans, spread over both Conv node tracks.
		if convSide != 16 {
			t.Fatalf("trace %s has %d conv-side phase spans, want 16", id, convSide)
		}
		if len(convTIDs) != 2 {
			t.Fatalf("trace %s conv spans on tracks %v, want both nodes", id, convTIDs)
		}
	}
}

// TestInferBreakdownCloses: the per-image Breakdown must cover every
// tile, keep phases non-negative, and sum each tile's phases to its
// end-to-end latency (well inside the 5% acceptance bound — exact, by
// construction).
func TestInferBreakdownCloses(t *testing.T) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	c, _, stop := buildRuntime(t, opt, 2, 10*time.Second)
	defer stop()
	rng := rand.New(rand.NewSource(12))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	_, st, err := c.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if st.Breakdown == nil || len(st.Breakdown.Tiles) != 4 {
		t.Fatalf("breakdown missing or incomplete: %+v", st.Breakdown)
	}
	if st.Breakdown.TraceID != st.TraceID {
		t.Fatal("breakdown trace ID must match the image's")
	}
	for _, tb := range st.Breakdown.Tiles {
		if tb.Conv == nil {
			t.Fatalf("tile %d lacks the Conv timing record", tb.Tile)
		}
		for p, d := range tb.Phase {
			if d < 0 {
				t.Fatalf("tile %d phase %s negative: %v", tb.Tile, PhaseNames[p], d)
			}
		}
		sum, total := tb.PhaseSum(), tb.Total
		diff := sum - total
		if diff < 0 {
			diff = -diff
		}
		if total <= 0 || float64(diff)/float64(total) > 0.05 {
			t.Fatalf("tile %d phases sum %v vs total %v (>5%%)", tb.Tile, sum, total)
		}
		if tb.Total > st.Latency {
			t.Fatalf("tile %d total %v exceeds image latency %v", tb.Tile, tb.Total, st.Latency)
		}
	}
}

// TestDeadlineMissDumpsFlightRecorder: a forced T_L miss must leave a
// non-empty flight dump naming the image and the missed tiles.
func TestDeadlineMissDumpsFlightRecorder(t *testing.T) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	flight := telemetry.NewFlightRecorder(0)
	c, _, stop := buildRuntime(t, opt, 2, time.Nanosecond, func(cfg *CentralConfig) { cfg.Flight = flight })
	defer stop()
	rng := rand.New(rand.NewSource(13))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	_, st, err := c.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if st.TilesMissed == 0 {
		t.Skip("scheduler beat a 1ns deadline — environment too fast to force misses")
	}
	dumps := flight.Dumps()
	if len(dumps) == 0 {
		t.Fatal("a missed deadline must trigger a flight dump")
	}
	d := dumps[len(dumps)-1]
	if d.Reason != "deadline-miss" || d.Image == 0 {
		t.Fatalf("dump must name the image and reason: %+v", d)
	}
	if len(d.Events) == 0 {
		t.Fatal("flight dump must not be empty")
	}
	misses := 0
	for _, ev := range d.Events {
		if ev.Kind == "deadline-miss" {
			if ev.Image != d.Image || ev.Tile < 0 {
				t.Fatalf("miss event must name (image, tile): %+v", ev)
			}
			misses++
		}
	}
	if misses != st.TilesMissed {
		t.Fatalf("dump records %d misses, stats say %d", misses, st.TilesMissed)
	}
}

// TestDebugSessions: after traffic has flowed, DebugSessions must report one row per node with live offset-estimator state.
func TestDebugSessions(t *testing.T) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	c, _, stop := buildRuntime(t, opt, 2, 10*time.Second)
	defer stop()
	if got := c.DebugSessions(); len(got) != 2 {
		t.Fatalf("sessions start with the Central: want 2 rows before the first Infer, got %d", len(got))
	}
	rng := rand.New(rand.NewSource(14))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	if _, _, err := c.Infer(x); err != nil {
		t.Fatal(err)
	}
	infos := c.DebugSessions()
	if len(infos) != 2 {
		t.Fatalf("want 2 session rows, got %d", len(infos))
	}
	for _, s := range infos {
		if !s.Alive || s.Epochs < 1 {
			t.Fatalf("session %d should be alive in epoch ≥1: %+v", s.Node, s)
		}
		if s.OffsetSamples < 1 {
			t.Fatalf("session %d has no offset samples after an image: %+v", s.Node, s)
		}
		if s.PendingTiles != 0 {
			t.Fatalf("session %d still pending %d tiles after Infer", s.Node, s.PendingTiles)
		}
	}

	// The rows are what adcnn-central serves at /debug/sessions: they must
	// survive a JSON round trip.
	data, err := json.Marshal(infos)
	if err != nil {
		t.Fatal(err)
	}
	var rows []SessionDebug
	if err := json.Unmarshal(data, &rows); err != nil || len(rows) != 2 || rows[1] != infos[1] {
		t.Fatalf("session rows do not round-trip through JSON: %v %+v", err, rows)
	}
}

// TestResultEchoesTraceContext: over the live runtime, every result a
// worker returns must echo the task's trace context — checked end to
// end through the pending-table demux by verifying the breakdown's
// timing records arrived (they ride the same frame).
func TestResultEchoesTraceContext(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	m, err := models.Build(models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(1, m)
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Serve(context.Background(), b) }()

	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(15)), 1)
	tls := m.Opt.Grid.Layout(32, 32)
	task := &Message{Kind: KindTask, ImageID: 5, TileID: 2, NodeID: 0,
		TraceID: 0xabc, SpanID: 0xdef, Payload: AppendTensor(nil, fdsp.ExtractTile(x, tls[2]))}
	if err := a.Send(task); err != nil {
		t.Fatal(err)
	}
	res, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindResult || res.ImageID != 5 || res.TileID != 2 {
		t.Fatalf("bad result %+v", res)
	}
	if res.TraceID != 0xabc || res.SpanID != 0xdef {
		t.Fatalf("result must echo trace context, got trace=%x span=%x", res.TraceID, res.SpanID)
	}
	tm := res.Timing
	if tm == nil {
		t.Fatal("result must carry a timing record")
	}
	if !(tm.RecvNs <= tm.DecodeNs && tm.DecodeNs <= tm.ComputeStartNs &&
		tm.ComputeStartNs <= tm.ComputeEndNs && tm.ComputeEndNs <= tm.EncodeNs &&
		tm.EncodeNs <= tm.SendNs) {
		t.Fatalf("timing record not monotone: %+v", tm)
	}
	a.Send(&Message{Kind: KindShutdown})
	a.Close()
	<-done
}
