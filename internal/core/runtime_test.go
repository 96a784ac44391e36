package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/tensor"
)

func TestTensorWireRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := []int{1 + rng.Intn(3), 1 + rng.Intn(4), 1 + rng.Intn(5)}
		x := tensor.New(shape...)
		x.RandN(rng, 1)
		y := new(tensor.Tensor)
		err := DecodeTensorInto(y, AppendTensor(nil, x))
		return err == nil && y.Equal(x, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTensorRejectsCorrupt(t *testing.T) {
	x := tensor.New(2, 3)
	enc := AppendTensor(nil, x)
	y := new(tensor.Tensor)
	if err := DecodeTensorInto(y, nil); err == nil {
		t.Fatal("nil payload must fail")
	}
	if err := DecodeTensorInto(y, enc[:5]); err == nil {
		t.Fatal("truncated payload must fail")
	}
	if err := DecodeTensorInto(y, append(enc, 0)); err == nil {
		t.Fatal("oversized payload must fail")
	}
}

func TestMessageFramingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{Kind: KindResult, ImageID: 7, TileID: 42, NodeID: 3,
		Compressed: true, Payload: []byte{1, 2, 3, 4, 5}}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.ImageID != 7 || out.TileID != 42 ||
		out.NodeID != 3 || !out.Compressed || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestMessageFramingRejectsBadLength(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader([]byte{protoMagic, ProtoVersion, 0xff, 0xff, 0xff, 0xff})); err == nil {
		t.Fatal("absurd frame length must fail")
	}
	if _, err := ReadMessage(bytes.NewReader([]byte{protoMagic, ProtoVersion, 1, 0, 0, 0, 1})); err == nil {
		t.Fatal("too-short frame must fail")
	}
}

func TestMessageFramingRejectsBadMagic(t *testing.T) {
	// An HTTP client hitting a Conv port, say: first byte is 'G'.
	_, err := ReadMessage(bytes.NewReader([]byte("GET / HTTP/1.1\r\n")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic must fail with ErrBadMagic, got %v", err)
	}
}

func TestMessageFramingRejectsVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Kind: KindTask, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	frame[1] = ProtoVersion + 1 // a future protocol revision
	_, err := ReadMessage(bytes.NewReader(frame))
	if !errors.Is(err, ErrProtoVersion) {
		t.Fatalf("version mismatch must fail with ErrProtoVersion, got %v", err)
	}
	ours := fmt.Sprintf("v%d", ProtoVersion)
	theirs := fmt.Sprintf("v%d", ProtoVersion+1)
	if !strings.Contains(err.Error(), ours) || !strings.Contains(err.Error(), theirs) {
		t.Fatalf("version error must name both revisions: %v", err)
	}
}

func TestCentralRejectsV1Peer(t *testing.T) {
	// A v1 frame: magic, version 1, then the old 14-byte body header. A
	// current build must reject it before trusting any length, with an
	// error naming both revisions so the operator knows which side to
	// upgrade.
	v1 := []byte{protoMagic, 1, 14, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	_, err := ReadMessage(bytes.NewReader(v1))
	if !errors.Is(err, ErrProtoVersion) {
		t.Fatalf("v1 peer must fail with ErrProtoVersion, got %v", err)
	}
	ours := fmt.Sprintf("v%d", ProtoVersion)
	if !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), ours) {
		t.Fatalf("error must name both v1 and the current revision: %v", err)
	}
}

func TestMessageTraceContextAndTimingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{
		Kind: KindResult, ImageID: 3, TileID: 9, NodeID: 1, Compressed: true,
		TraceID: 0xdeadbeefcafe0001, SpanID: 0x42,
		Timing: &ConvTiming{
			RecvNs: 100, DecodeNs: 150, ComputeStartNs: 200,
			ComputeEndNs: 900, EncodeNs: 950, SendNs: 1000,
		},
		Payload: []byte{7, 8, 9},
	}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != in.TraceID || out.SpanID != in.SpanID {
		t.Fatalf("trace context lost: %+v", out)
	}
	if out.Timing == nil || *out.Timing != *in.Timing {
		t.Fatalf("timing record lost: %+v", out.Timing)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("payload corrupted after timing record: %v", out.Payload)
	}
	// Truncated timing record must error, not panic or misparse.
	var short bytes.Buffer
	if err := WriteMessage(&short, in); err != nil {
		t.Fatal(err)
	}
	frame := short.Bytes()
	cut := frame[:len(frame)-len(in.Payload)-8] // drop payload + tail of timing
	binary.LittleEndian.PutUint32(cut[2:], uint32(len(cut)-6))
	if _, err := ReadMessage(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated timing record must fail")
	}
}

func TestPipeConnDelivers(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	msg := &Message{Kind: KindTask, ImageID: 1, Payload: []byte("x")}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil || got.ImageID != 1 {
		t.Fatalf("recv: %v %+v", err, got)
	}
	a.Close()
	if err := a.Send(msg); err == nil {
		t.Fatal("send on closed conn must fail")
	}
}

// buildRuntime wires a Central and n in-process Workers sharing one
// model's weights. Each with hook edits the CentralConfig before Start.
func buildRuntime(t *testing.T, opt models.Options, n int, tl time.Duration, with ...func(*CentralConfig)) (*Central, *models.Model, func()) {
	t.Helper()
	cfg := models.VGGSim()
	m, err := models.Build(cfg, opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	c, _, stop := buildRuntimeConns(t, m, n, tl, with...)
	return c, m, stop
}

// buildRuntimeConns is buildRuntime for callers that need the central
// sides of the pipes (e.g. to kill one mid-test).
func buildRuntimeConns(t *testing.T, m *models.Model, n int, tl time.Duration, with ...func(*CentralConfig)) (*Central, []Conn, func()) {
	t.Helper()
	conns := make([]Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		a, b := Pipe()
		conns[i] = a
		w := NewWorker(i+1, m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Serve(context.Background(), b)
		}()
	}
	cfg := CentralConfig{Model: m, Conns: conns, TL: tl, Gamma: 0.9}
	for _, f := range with {
		f(&cfg)
	}
	c, err := cfg.Start()
	if err != nil {
		t.Fatal(err)
	}
	return c, conns, func() { c.Shutdown(); wg.Wait() }
}

func TestDistributedMatchesLocalExecution(t *testing.T) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}}
	c, m, stop := buildRuntime(t, opt, 4, 5*time.Second)
	defer stop()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3; trial++ {
		x := tensor.New(1, 3, 32, 32)
		x.RandN(rng, 1)
		want := m.Net.Forward(x, false)
		got, st, err := c.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if st.TilesMissed != 0 {
			t.Fatalf("missed %d tiles with a generous deadline", st.TilesMissed)
		}
		if !got.Equal(want, 1e-4) {
			t.Fatal("distributed inference must match local execution")
		}
	}
}

func TestDistributedWithCompressionMatchesLocal(t *testing.T) {
	opt := models.Options{
		Grid:   fdsp.Grid{Rows: 4, Cols: 4},
		ClipLo: 0.05, ClipHi: 2.0, QuantBits: 4,
	}
	c, m, stop := buildRuntime(t, opt, 4, 5*time.Second)
	defer stop()
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	want := m.Net.Forward(x, false) // local graph includes clip + STQuant
	got, st, err := c.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-4) {
		t.Fatal("compressed distributed inference must match the modified training graph")
	}
	// Compression must actually shrink the wire volume versus raw floats.
	raw := int64(models.VGGSim().FrontOutBytes())
	if st.WireBytes >= raw {
		t.Fatalf("wire bytes %d not smaller than raw %d", st.WireBytes, raw)
	}
}

func TestDistributedLoadBalancesAcrossImages(t *testing.T) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}}
	c, _, stop := buildRuntime(t, opt, 4, 5*time.Second)
	defer stop()
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	var last InferStats
	for i := 0; i < 5; i++ {
		_, st, err := c.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		last = st
	}
	if last.Alloc.Total() != 16 {
		t.Fatalf("total tiles %d", last.Alloc.Total())
	}
	for k, n := range last.Alloc {
		if n == 0 {
			t.Fatalf("node %d starved: %v", k, last.Alloc)
		}
	}
}

func TestDeadlineZeroFillsMissingTiles(t *testing.T) {
	// A 1ns deadline guarantees every tile misses; inference must still
	// produce an output of the right shape.
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	c, m, stop := buildRuntime(t, opt, 2, time.Nanosecond)
	defer stop()
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	got, st, err := c.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if st.TilesMissed == 0 {
		t.Skip("scheduler beat a 1ns deadline — environment too fast to force misses")
	}
	want := m.Net.Forward(x, false)
	if !got.SameShape(want) {
		t.Fatalf("output shape %v, want %v", got.Shape, want.Shape)
	}
}

func TestCentralRequiresPartitionedModel(t *testing.T) {
	m, err := models.Build(models.VGGSim(), models.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Pipe()
	if _, err := NewCentral(m, []Conn{a}, time.Second, 0.9); err == nil {
		t.Fatal("unpartitioned model must be rejected")
	}
}
