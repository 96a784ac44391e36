package core

import (
	"bytes"
	"testing"

	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// FuzzReadMessage: arbitrary frames must never panic; accepted frames
// must survive a write/read round trip.
func FuzzReadMessage(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteMessage(&buf, &Message{Kind: KindTask, ImageID: 1, TileID: 2,
		TraceID: 0x1122334455667788, SpanID: 0x99, Payload: []byte("abc")})
	f.Add(buf.Bytes())
	var timed bytes.Buffer
	_ = WriteMessage(&timed, &Message{Kind: KindResult, ImageID: 4, TileID: 5,
		TraceID: 7, SpanID: 8,
		Timing:  &ConvTiming{RecvNs: 10, DecodeNs: 20, ComputeStartNs: 30, ComputeEndNs: 40, EncodeNs: 50, SendNs: 60},
		Payload: []byte("xyz")})
	f.Add(timed.Bytes())
	var quantized bytes.Buffer
	_ = WriteMessage(&quantized, &Message{Kind: KindTask, ImageID: 9, TileID: 0,
		Quantized: true, Payload: []byte{1, 4, 0, 0, 0, 0, 0, 128, 63, 7, 10, 20, 30, 40}})
	f.Add(quantized.Bytes())
	f.Add([]byte{})
	// Minimal valid current-revision frame: magic, version,
	// length=bodyHeader, all-zero header fields (kind 1), no timing,
	// empty payload.
	minimal := append([]byte{protoMagic, ProtoVersion, bodyHeader, 0, 0, 0, 1}, make([]byte, bodyHeader-1)...)
	f.Add(minimal)
	// Wrong magic and wrong version with otherwise-valid frames, plus a
	// v1 frame (old 14-byte header) a current build must reject cleanly.
	f.Add(append([]byte{0x00, ProtoVersion, bodyHeader, 0, 0, 0, 1}, make([]byte, bodyHeader-1)...))
	f.Add(append([]byte{protoMagic, ProtoVersion + 1, bodyHeader, 0, 0, 0, 1}, make([]byte, bodyHeader-1)...))
	f.Add([]byte{protoMagic, 1, 14, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Timing flag set (bit 1 of flags at body offset 9) but truncated
	// record: must error, never misparse.
	liar := append([]byte{protoMagic, ProtoVersion, bodyHeader + 8, 0, 0, 0, 2}, make([]byte, bodyHeader+8-1)...)
	liar[6+9] = flagTiming
	f.Add(liar)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteMessage(&out, m); err != nil {
			t.Fatalf("accepted message failed to re-frame: %v", err)
		}
		m2, err := ReadMessage(&out)
		if err != nil {
			t.Fatalf("re-framed message failed to parse: %v", err)
		}
		if m2.Kind != m.Kind || m2.ImageID != m.ImageID || m2.TileID != m.TileID ||
			m2.Compressed != m.Compressed || m2.Quantized != m.Quantized ||
			m2.TraceID != m.TraceID || m2.SpanID != m.SpanID ||
			!bytes.Equal(m2.Payload, m.Payload) {
			t.Fatal("frame round trip changed the message")
		}
		if (m2.Timing == nil) != (m.Timing == nil) ||
			(m.Timing != nil && *m2.Timing != *m.Timing) {
			t.Fatal("frame round trip changed the timing record")
		}
	})
}

// FuzzDecodeTensor: arbitrary tensor payloads must never panic; accepted
// payloads must round-trip.
func FuzzDecodeTensor(f *testing.F) {
	x := tensor.New(2, 3)
	x.Data[0] = 1.5
	f.Add(AppendTensor(nil, x))
	f.Add([]byte{})
	f.Add([]byte{1, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Guard against absurd allocations from corrupt shape headers:
		// DecodeTensorInto validates total length, so a huge declared
		// volume with a short payload errors before allocating.
		y, z := new(tensor.Tensor), new(tensor.Tensor)
		if err := DecodeTensorInto(y, data); err != nil {
			return
		}
		if err := DecodeTensorInto(z, AppendTensor(nil, y)); err != nil || !z.Equal(y, 0) {
			t.Fatal("tensor round trip failed")
		}
	})
}

// FuzzDequantizeQuantTensor: the fused levels-downlink decode must never
// panic on arbitrary payloads — truncated headers, overlong level runs,
// non-finite or non-positive scales — and must agree exactly with the
// two-step decode (DecodeQuantTensorInto + DequantizeInto) on both the
// accept/reject decision and the produced float values.
func FuzzDequantizeQuantTensor(f *testing.F) {
	x := tensor.New(2, 3, 4)
	for i := range x.Data {
		x.Data[i] = float32(i) * 0.125
	}
	af := quant.Affine{Scale: 0.0625, Zero: 3}
	valid := AppendQuantTensor(nil, x, af)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])                         // truncated levels
	f.Add(append(valid, 0, 0, 0))                       // overlong levels
	f.Add(valid[:3])                                    // truncated header
	f.Add([]byte{})                                     // empty
	f.Add([]byte{0, 0, 0, 0, 192, 127, 0})              // rank 0, scale NaN
	f.Add([]byte{0, 0, 0, 128, 127, 0})                 // rank 0, scale +Inf (short: rejected)
	f.Add([]byte{0, 0, 0, 0x80, 0xFF, 0})               // rank 0, scale -Inf... header is 6 bytes for rank 0
	f.Add([]byte{1, 255, 255, 255, 255, 0, 0, 0, 0, 0}) // huge dim
	f.Fuzz(func(t *testing.T, data []byte) {
		got := tensor.New(1)
		err := DequantizeQuantTensorInto(got, data)
		var q QuantTile
		err2 := DecodeQuantTensorInto(&q, data)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("fused decode err=%v, two-step decode err=%v", err, err2)
		}
		if err != nil {
			return
		}
		want := tensor.New(1)
		q.DequantizeInto(want)
		if len(got.Data) != len(want.Data) {
			t.Fatalf("fused decode %d values, two-step %d", len(got.Data), len(want.Data))
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("value %d: fused %g, two-step %g", i, got.Data[i], want.Data[i])
			}
		}
	})
}

// FuzzDecodeQuantTensor: arbitrary quantized tensor payloads must never
// panic; accepted payloads must round-trip through encode exactly.
func FuzzDecodeQuantTensor(f *testing.F) {
	x := tensor.New(1, 2, 3)
	x.Data[0] = 0.5
	x.Data[5] = -1.25
	af := quant.Affine{Scale: 0.25, Zero: 128}
	f.Add(AppendQuantTensor(nil, x, af))
	f.Add([]byte{})
	f.Add([]byte{1, 255, 255, 255, 255})
	f.Add([]byte{0, 0, 0, 0, 0, 0}) // rank 0, scale 0 (rejected)
	f.Fuzz(func(t *testing.T, data []byte) {
		var q QuantTile
		if err := DecodeQuantTensorInto(&q, data); err != nil {
			return
		}
		vol := 1
		for _, d := range q.Shape {
			vol *= d
		}
		if vol != len(q.Levels) {
			t.Fatalf("shape %v volume %d != %d levels", q.Shape, vol, len(q.Levels))
		}
		// Re-encode from the decoded fields: dequantize with the decoded
		// affine, then quantize back — levels must survive exactly because
		// dequantize(q) lands on the centre of q's grid cell.
		xt := tensor.New(q.Shape...)
		tensor.DequantizeAffineSlice(xt.Data, q.Levels, q.Affine.Scale, q.Affine.Zero)
		out := AppendQuantTensor(nil, xt, q.Affine)
		if !bytes.Equal(out, data) {
			t.Fatalf("quantized tensor round trip changed the payload")
		}
	})
}
