package core

import (
	"bytes"
	"math/rand"
	"testing"

	"adcnn/internal/compress"
	"adcnn/internal/tensor"
)

// TestTileRoundTripZeroAlloc drives a full worker-tile round trip at the
// wire level — fused boundary encode → frame write → frame read → fused
// decode — with every buffer recycled, and requires zero steady-state
// heap allocations. This is the tentpole property: a tile exchange costs
// CPU, not garbage.
func TestTileRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(9))
	y := tensor.New(1, 8, 16, 16)
	for i := range y.Data {
		if rng.Float64() > 0.8 {
			y.Data[i] = 6 * rng.Float32()
		}
	}
	p := compress.NewPipeline(4, 6)
	encBuf := tensor.GetBytes(p.MaxEncodedSize(y))
	m := &Message{
		Kind: KindResult, ImageID: 1, TileID: 2, Compressed: true,
		TraceID: 7, SpanID: 8, Timing: &ConvTiming{RecvNs: 1, SendNs: 6},
	}
	var frame bytes.Buffer
	var rd bytes.Reader
	rm := &Message{}
	var dst tensor.Tensor

	roundTrip := func() {
		out, err := p.EncodeInto(encBuf[:0], y)
		if err != nil {
			t.Fatal(err)
		}
		encBuf = out
		m.Payload = out
		frame.Reset()
		if err := WriteMessage(&frame, m); err != nil {
			t.Fatal(err)
		}
		rd.Reset(frame.Bytes())
		if err := ReadMessageInto(&rd, rm); err != nil {
			t.Fatal(err)
		}
		if err := compress.DecodeInto(&dst, rm.Payload); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm: frame capacity, pooled payload, timing record, LUT

	allocs := testing.AllocsPerRun(100, roundTrip)
	if allocs != 0 {
		t.Fatalf("tile round trip allocated %.1f times per op, want 0", allocs)
	}
	if rm.ImageID != 1 || rm.TileID != 2 || !rm.Compressed || rm.Timing == nil {
		t.Fatalf("round-tripped message corrupted: %+v", rm)
	}
	if dst.Len() != y.Len() {
		t.Fatalf("decoded %d values, want %d", dst.Len(), y.Len())
	}
}

// TestRawTensorRoundTripZeroAlloc is the uncompressed-path twin: task
// dispatch frames carry AppendTensor payloads and the worker decodes
// them with DecodeTensorInto.
func TestRawTensorRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	y := tensor.New(1, 3, 32, 32)
	for i := range y.Data {
		y.Data[i] = float32(i)
	}
	encBuf := tensor.GetBytes(TensorWireSize(y))
	m := &Message{Kind: KindTask, ImageID: 1, TileID: 0}
	var frame bytes.Buffer
	var rd bytes.Reader
	rm := &Message{}
	var dst tensor.Tensor

	roundTrip := func() {
		encBuf = AppendTensor(encBuf[:0], y)
		m.Payload = encBuf
		frame.Reset()
		if err := WriteMessage(&frame, m); err != nil {
			t.Fatal(err)
		}
		rd.Reset(frame.Bytes())
		if err := ReadMessageInto(&rd, rm); err != nil {
			t.Fatal(err)
		}
		if err := DecodeTensorInto(&dst, rm.Payload); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()

	allocs := testing.AllocsPerRun(100, roundTrip)
	if allocs != 0 {
		t.Fatalf("raw tensor round trip allocated %.1f times per op, want 0", allocs)
	}
	for i := range y.Data {
		if dst.Data[i] != y.Data[i] {
			t.Fatalf("value %d: got %v want %v", i, dst.Data[i], y.Data[i])
		}
	}
}

// TestPipeSendCopiesPayload pins the Conn.Send borrow contract on the
// in-process transport: the sender may clobber or release its buffer the
// moment Send returns, and the receiver still sees the original frame
// (and can release its own copy independently).
func TestPipeSendCopiesPayload(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	payload := tensor.GetBytes(4)
	copy(payload, []byte{1, 2, 3, 4})
	tm := &ConvTiming{RecvNs: 42}
	m := &Message{Kind: KindResult, ImageID: 9, Payload: payload, Timing: tm}
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	// Sender reuses its storage immediately.
	for i := range payload {
		payload[i] = 0xff
	}
	tm.RecvNs = -1
	m.ImageID = 0

	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.ImageID != 9 || !bytes.Equal(got.Payload, []byte{1, 2, 3, 4}) {
		t.Fatalf("receiver saw sender-side mutations: %+v payload %x", got, got.Payload)
	}
	if got.Timing == nil || got.Timing.RecvNs != 42 {
		t.Fatalf("timing record shared with sender: %+v", got.Timing)
	}
	got.ReleasePayload()
	if got.Payload != nil {
		t.Fatal("ReleasePayload must clear the field")
	}
	got.ReleasePayload() // idempotent
}

// TestReadMessageIntoReusesTiming: the recycled destination keeps one
// ConvTiming across frames and drops it when a frame has none.
func TestReadMessageIntoReusesTiming(t *testing.T) {
	var frame bytes.Buffer
	m := &Message{Kind: KindResult, Timing: &ConvTiming{RecvNs: 5}}
	if err := WriteMessage(&frame, m); err != nil {
		t.Fatal(err)
	}
	rm := &Message{}
	if err := ReadMessageInto(bytes.NewReader(frame.Bytes()), rm); err != nil {
		t.Fatal(err)
	}
	first := rm.Timing
	if first == nil || first.RecvNs != 5 {
		t.Fatalf("timing not decoded: %+v", rm.Timing)
	}
	if err := ReadMessageInto(bytes.NewReader(frame.Bytes()), rm); err != nil {
		t.Fatal(err)
	}
	if rm.Timing != first {
		t.Fatal("second read should reuse the existing timing record")
	}
	frame.Reset()
	if err := WriteMessage(&frame, &Message{Kind: KindTask}); err != nil {
		t.Fatal(err)
	}
	if err := ReadMessageInto(bytes.NewReader(frame.Bytes()), rm); err != nil {
		t.Fatal(err)
	}
	if rm.Timing != nil {
		t.Fatal("timing must be cleared for frames without a record")
	}
}
