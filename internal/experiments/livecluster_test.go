package experiments

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"adcnn/internal/core"
)

// TestSkewConnShiftsEveryStamp sends one result frame through the skew
// wrapper over an in-process pipe: a non-zero skew moves each of the six
// timing stamps by exactly the skew and nothing else, on a copy, and a
// zero skew passes the frame through untouched.
func TestSkewConnShiftsEveryStamp(t *testing.T) {
	a, b := core.Pipe()
	defer a.Close()
	var skew atomic.Int64
	sc := skewConn{Conn: a, skew: &skew}
	tm := core.ConvTiming{RecvNs: 1, DecodeNs: 2, ComputeStartNs: 3, ComputeEndNs: 4, EncodeNs: 5, SendNs: 6}
	sent := core.Message{
		Kind: core.KindResult, ImageID: 7, TileID: 3, Quantized: true,
		TraceID: 11, SpanID: 12, Timing: &tm, Payload: []byte{1, 2, 3, 4},
	}
	orig := tm

	roundTrip := func(d time.Duration) *core.Message {
		t.Helper()
		skew.Store(int64(d))
		if err := sc.Send(&sent); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != sent.Kind || got.ImageID != sent.ImageID || got.TileID != sent.TileID ||
			got.Compressed != sent.Compressed || got.Quantized != sent.Quantized ||
			got.TraceID != sent.TraceID || got.SpanID != sent.SpanID ||
			!bytes.Equal(got.Payload, sent.Payload) {
			t.Fatalf("skew %v changed more than the stamps: sent %+v, got %+v", d, sent, *got)
		}
		if tm != orig {
			t.Fatalf("skew %v wrote the sender's timing record: %+v", d, tm)
		}
		return got
	}

	const d = 30 * time.Millisecond
	got := roundTrip(d)
	n := int64(d)
	want := core.ConvTiming{RecvNs: 1 + n, DecodeNs: 2 + n, ComputeStartNs: 3 + n, ComputeEndNs: 4 + n, EncodeNs: 5 + n, SendNs: 6 + n}
	if got.Timing == nil || *got.Timing != want {
		t.Fatalf("skewed stamps %+v, want %+v", got.Timing, want)
	}

	if got = roundTrip(0); got.Timing == nil || *got.Timing != orig {
		t.Fatalf("zero skew stamps %+v, want %+v", got.Timing, orig)
	}
}
