package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"

	"adcnn/internal/tensor"
)

// MsgKind tags protocol messages.
type MsgKind uint8

// Message kinds. A session ends on EOF or cancellation, so tiles and
// results are the only frames.
const (
	KindTask   MsgKind = 1 // Central → Conv: one input tile
	KindResult MsgKind = 2 // Conv → Central: one intermediate result
)

// Message is one protocol frame. Tiles carry the image ID and tile ID of
// paper Figure 8 so results can be matched to requests, plus a trace
// context so every hop of a tile's journey lands under one trace.
type Message struct {
	Kind    MsgKind
	ImageID uint32
	TileID  uint32
	// Compressed marks Payload as a compress-pipeline payload rather
	// than a raw tensor encoding.
	Compressed bool
	// Quantized marks Payload as a quantized tensor encoding (uint8
	// affine levels + scale/zero-point, see AppendQuantTensor) rather
	// than raw float32 words. Task frames use it for the int8 operating
	// mode's uplink: the Conv worker feeds the levels straight into the
	// first convolution's int8 GEMM.
	Quantized bool
	// TraceID is the per-image trace identifier; SpanID is the parent
	// span (the tile dispatch) the receiver should attribute work to.
	// Workers echo both back on the result frame.
	TraceID uint64
	SpanID  uint64
	// Timing is the Conv-side timing record attached to result frames
	// (nil on tasks and on results from a worker that did not time the
	// tile). Timestamps are monotonic nanoseconds on the sender's clock;
	// the Central maps them onto its own clock with the per-session
	// offset estimator.
	Timing *ConvTiming
	// Payload is the frame body. Ownership: a message produced by
	// Conn.Recv owns its payload, which is backed by a pooled wire buffer
	// (tensor.GetBytes); the receiver must call ReleasePayload once the
	// bytes have been consumed (for tile frames: right after the tensor
	// decode that follows demux) — or simply drop the message and let the
	// GC take the buffer. On Send the transport only borrows the payload:
	// once Send returns, the buffer is the caller's again to reuse or
	// release (stream transports have fully serialised it; the in-process
	// pipe hands the peer a pooled copy).
	Payload []byte
}

// ReleasePayload returns the payload's backing storage to the wire
// buffer pool and clears the field. Safe to call twice, on a nil
// payload, or on a payload that never came from the pool (non-pooled
// backing is silently dropped). The caller must not retain views of the
// payload (including decoded-in-place aliases) past this call.
func (m *Message) ReleasePayload() {
	tensor.PutBytes(m.Payload)
	m.Payload = nil
}

// ConvTiming is the per-tile timing record a Conv node attaches to each
// result: six monotonic timestamps (nanoseconds since the Conv process
// epoch) bracketing every stage of the tile's stay on the node.
type ConvTiming struct {
	RecvNs         int64 // task frame read off the wire
	DecodeNs       int64 // input tensor decoded
	ComputeStartNs int64 // compute loop takes the task, Front compute begins (queue wait ends)
	ComputeEndNs   int64 // Front+Boundary forward done
	EncodeNs       int64 // result payload encoded
	SendNs         int64 // result frame about to be written
}

// timingSize is the wire size of a ConvTiming record: 6 × int64.
const timingSize = 48

func (tm *ConvTiming) encode(dst []byte) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(tm.RecvNs))
	binary.LittleEndian.PutUint64(dst[8:], uint64(tm.DecodeNs))
	binary.LittleEndian.PutUint64(dst[16:], uint64(tm.ComputeStartNs))
	binary.LittleEndian.PutUint64(dst[24:], uint64(tm.ComputeEndNs))
	binary.LittleEndian.PutUint64(dst[32:], uint64(tm.EncodeNs))
	binary.LittleEndian.PutUint64(dst[40:], uint64(tm.SendNs))
}

func decodeTiming(tm *ConvTiming, src []byte) {
	tm.RecvNs = int64(binary.LittleEndian.Uint64(src[0:]))
	tm.DecodeNs = int64(binary.LittleEndian.Uint64(src[8:]))
	tm.ComputeStartNs = int64(binary.LittleEndian.Uint64(src[16:]))
	tm.ComputeEndNs = int64(binary.LittleEndian.Uint64(src[24:]))
	tm.EncodeNs = int64(binary.LittleEndian.Uint64(src[32:]))
	tm.SendNs = int64(binary.LittleEndian.Uint64(src[40:]))
}

// Wire frame layout: every frame starts with a magic byte and a protocol
// version byte, so a Central talking to the wrong port (or to a node
// built from an incompatible revision) fails with a clear error instead
// of misparsing a length.
const (
	protoMagic = 0xAD // "ADcnn"
	// ProtoVersion is the wire protocol revision: bump it on any change
	// an older peer would misread — layout, flags or message kinds.
	ProtoVersion = 6
)

// ErrProtoVersion reports a peer speaking a different frame revision.
var ErrProtoVersion = errors.New("core: protocol version mismatch")

// ErrBadMagic reports a stream that is not the ADCNN protocol at all.
var ErrBadMagic = errors.New("core: bad frame magic (not an ADCNN peer?)")

const maxFrame = 256 << 20 // 256 MiB guard against corrupt lengths

// bodyHeader is the fixed-size message header inside the frame body:
// kind(1) + imageID(4) + tileID(4) + flags(1) + traceID(8) + spanID(8).
const bodyHeader = 26

// Header flag bits.
const (
	flagCompressed = 1 << 0 // Payload is a compress-pipeline encoding
	flagTiming     = 1 << 1 // a ConvTiming record precedes the payload
	flagQuantized  = 1 << 2 // Payload is a quantized tensor encoding
)

// WriteMessage frames and writes a message. The header is staged in a
// pooled scratch buffer rather than a stack array: the bytes escape
// through the io.Writer interface, and a per-frame heap header would be
// the last allocation left on the tile round trip.
func WriteMessage(w io.Writer, m *Message) error {
	if len(m.Payload) > maxFrame {
		return fmt.Errorf("core: payload %d exceeds frame limit", len(m.Payload))
	}
	body := uint32(len(m.Payload)) + bodyHeader
	if m.Timing != nil {
		body += timingSize
	}
	scratch := tensor.GetBytes(6 + bodyHeader + timingSize)
	defer tensor.PutBytes(scratch)
	hdr := scratch
	hdr[0] = protoMagic
	hdr[1] = ProtoVersion
	binary.LittleEndian.PutUint32(hdr[2:], body)
	hdr[6] = byte(m.Kind)
	binary.LittleEndian.PutUint32(hdr[7:], m.ImageID)
	binary.LittleEndian.PutUint32(hdr[11:], m.TileID)
	var flags byte
	if m.Compressed {
		flags |= flagCompressed
	}
	if m.Timing != nil {
		flags |= flagTiming
	}
	if m.Quantized {
		flags |= flagQuantized
	}
	hdr[15] = flags
	binary.LittleEndian.PutUint64(hdr[16:], m.TraceID)
	binary.LittleEndian.PutUint64(hdr[24:], m.SpanID)
	n := 6 + bodyHeader
	if m.Timing != nil {
		m.Timing.encode(hdr[n:])
		n += timingSize
	}
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(m.Payload)
	return err
}

// ReadMessage reads one framed message. A wrong magic byte or protocol
// version fails with ErrBadMagic / ErrProtoVersion before any length is
// trusted; a v1 peer is named explicitly so the operator knows which
// side to upgrade. The returned message's payload is a pooled wire
// buffer — see Message.Payload for the release contract.
func ReadMessage(r io.Reader) (*Message, error) {
	m := &Message{}
	if err := ReadMessageInto(r, m); err != nil {
		return nil, err
	}
	return m, nil
}

// ReadMessageInto reads one framed message into m, reusing m's Timing
// record and the capacity of m.Payload so a receive loop that recycles
// one Message (or calls ReleasePayload between frames) reads with zero
// steady-state allocations. The frame header and timing record land in
// stack scratch; only the payload bytes touch m.Payload, which is
// re-taken from the wire buffer pool when too small. On error m is left
// partially filled but its Payload storage remains valid to reuse or
// release.
func ReadMessageInto(r io.Reader, m *Message) error {
	// Pooled scratch for the fixed-size frame sections (they escape
	// through the io.Reader interface, so stack arrays would heap-allocate
	// per frame); the payload reads straight into m.Payload.
	scratch := tensor.GetBytes(bodyHeader + timingSize)
	defer tensor.PutBytes(scratch)
	pre := scratch[:6]
	if _, err := io.ReadFull(r, pre); err != nil {
		return err
	}
	if pre[0] != protoMagic {
		return fmt.Errorf("%w: got 0x%02x", ErrBadMagic, pre[0])
	}
	if pre[1] != ProtoVersion {
		return fmt.Errorf("%w: peer speaks v%d, this build speaks v%d",
			ErrProtoVersion, pre[1], ProtoVersion)
	}
	n := binary.LittleEndian.Uint32(pre[2:])
	if n < bodyHeader || n > maxFrame {
		return fmt.Errorf("core: bad frame length %d", n)
	}
	hdr := scratch[:bodyHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	flags := hdr[9]
	m.Kind = MsgKind(hdr[0])
	m.ImageID = binary.LittleEndian.Uint32(hdr[1:])
	m.TileID = binary.LittleEndian.Uint32(hdr[5:])
	m.Compressed = flags&flagCompressed != 0
	m.Quantized = flags&flagQuantized != 0
	m.TraceID = binary.LittleEndian.Uint64(hdr[10:])
	m.SpanID = binary.LittleEndian.Uint64(hdr[18:])
	rest := int(n) - bodyHeader
	if flags&flagTiming != 0 {
		if rest < timingSize {
			return fmt.Errorf("core: frame advertises a timing record but carries %d bytes", rest)
		}
		tb := scratch[:timingSize]
		if _, err := io.ReadFull(r, tb); err != nil {
			return err
		}
		if m.Timing == nil {
			m.Timing = new(ConvTiming)
		}
		decodeTiming(m.Timing, tb)
		rest -= timingSize
	} else {
		m.Timing = nil
	}
	if cap(m.Payload) < rest {
		tensor.PutBytes(m.Payload)
		m.Payload = tensor.GetBytes(rest)
	}
	m.Payload = m.Payload[:rest]
	_, err := io.ReadFull(r, m.Payload)
	return err
}

// hostLittleEndian reports whether float32 words can be bulk-copied into
// the (little-endian) wire format without per-element byte swaps.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// putFloat32s writes src as little-endian uint32 words into dst
// (len(dst) ≥ 4·len(src)). On little-endian hosts the float data already
// has the wire layout, so the whole slice is copied as bytes in one
// memmove instead of a per-element PutUint32 loop.
func putFloat32s(dst []byte, src []float32) {
	if len(src) == 0 {
		return
	}
	if hostLittleEndian {
		copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), 4*len(src)))
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// getFloat32s reads len(dst) little-endian float32 words from src.
func getFloat32s(dst []float32, src []byte) {
	if len(dst) == 0 {
		return
	}
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 4*len(dst)), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// TensorWireSize is the exact byte length AppendTensor produces for t,
// so callers can pre-size a pooled buffer.
func TensorWireSize(t *tensor.Tensor) int { return 1 + 4*t.Rank() + 4*t.Len() }

// AppendTensor serialises t (shape + raw float32 data) onto dst and
// returns the extended slice. When dst has TensorWireSize spare
// capacity — e.g. a buffer from tensor.GetBytes — no allocation occurs.
func AppendTensor(dst []byte, t *tensor.Tensor) []byte {
	off := len(dst)
	need := TensorWireSize(t)
	if cap(dst) < off+need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	dst[off] = byte(t.Rank())
	p := off + 1
	for _, d := range t.Shape {
		binary.LittleEndian.PutUint32(dst[p:], uint32(d))
		p += 4
	}
	putFloat32s(dst[p:], t.Data)
	return dst
}

// parseShape reads the rank | dims(4·rank, u32 LE) header every tensor
// encoding opens with, appending the dims onto shape[:0]. It returns
// the shape, its volume and the offset of the first byte after the
// dims; trailer is how many more fixed header bytes the encoding
// carries after them, maxVol the largest volume whose payload still
// fits a frame, and kind names the encoding in errors.
func parseShape(shape []int, data []byte, trailer, maxVol int, kind string) (_ []int, vol, off int, err error) {
	if len(data) < 1 {
		return nil, 0, 0, fmt.Errorf("core: empty %s payload", kind)
	}
	rank := int(data[0])
	off = 1
	if len(data) < off+4*rank+trailer {
		return nil, 0, 0, fmt.Errorf("core: truncated %s header", kind)
	}
	shape, vol = shape[:0], 1
	for i := 0; i < rank; i++ {
		d := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		shape = append(shape, d)
		vol *= d
		// Guard against integer overflow from corrupt shape headers: no
		// legitimate payload exceeds the frame limit.
		if vol < 0 || vol > maxVol {
			return nil, 0, 0, fmt.Errorf("core: %s volume overflows frame limit", kind)
		}
	}
	return shape, vol, off, nil
}

// DecodeTensorInto decodes an AppendTensor payload into dst, reshaping
// it in place. Like compress.DecodeInto, dst must own its storage: a
// too-small backing array is swapped for one from the tensor buffer
// pool, so a reused (or pool-released) destination decodes with zero
// steady-state allocations. The payload bytes are fully copied out —
// dst never aliases data, so the caller may release the wire buffer
// immediately after this returns.
func DecodeTensorInto(dst *tensor.Tensor, data []byte) error {
	shape, vol, off, err := parseShape(dst.Shape, data, 0, maxFrame/4, "tensor")
	if err != nil {
		return err
	}
	if len(data) != off+4*vol {
		return fmt.Errorf("core: tensor payload %d bytes, want %d", len(data), off+4*vol)
	}
	dst.Shape = shape
	growData(dst, vol)
	getFloat32s(dst.Data, data[off:])
	return nil
}

// growData sizes dst.Data to vol elements, swapping a too-small backing
// array for one from the tensor buffer pool.
func growData(dst *tensor.Tensor, vol int) {
	if cap(dst.Data) < vol {
		tensor.PutBuf(dst.Data)
		dst.Data = tensor.GetBuf(vol)
	}
	dst.Data = dst.Data[:vol]
}

// growBytes returns buf if it can hold n bytes, else swaps it for a
// pooled wire buffer that can.
func growBytes(buf []byte, n int) []byte {
	if cap(buf) < n {
		tensor.PutBytes(buf)
		buf = tensor.GetBytes(n)
	}
	return buf
}

// Conn is a bidirectional message channel between Central and one Conv
// node.
//
// Send borrows m for the duration of the call: once it returns, the
// caller owns m and m.Payload again and may overwrite or release them
// (the stream transport has serialised the frame; the in-process pipe
// enqueues a pooled copy). Recv transfers payload ownership to the
// caller — see Message.Payload.
type Conn interface {
	Send(m *Message) error
	Recv() (*Message, error)
	Close() error
}

// chanConn is the in-process transport: two buffered channels.
type chanConn struct {
	out    chan<- *Message
	in     <-chan *Message
	closed chan struct{}
}

// Pipe returns a connected pair of in-process Conns.
func Pipe() (a, b Conn) {
	ab := make(chan *Message, 1024)
	ba := make(chan *Message, 1024)
	closed := make(chan struct{})
	return &chanConn{out: ab, in: ba, closed: closed},
		&chanConn{out: ba, in: ab, closed: closed}
}

func (c *chanConn) Send(m *Message) error {
	// Check the closed flag first: with a buffered channel both select
	// cases can be ready and the choice would be random.
	select {
	case <-c.closed:
		return errors.New("core: connection closed")
	default:
	}
	// Honour the Conn.Send borrow contract: the caller may reuse m and
	// m.Payload the moment Send returns, so the peer must receive its
	// own copy — struct, timing record, and a pooled payload clone the
	// receiver can ReleasePayload exactly like a stream-read frame.
	cp := new(Message)
	*cp = *m
	if m.Timing != nil {
		tm := *m.Timing
		cp.Timing = &tm
	}
	if m.Payload != nil {
		cp.Payload = tensor.GetBytes(len(m.Payload))
		copy(cp.Payload, m.Payload)
	}
	select {
	case <-c.closed:
		cp.ReleasePayload()
		return errors.New("core: connection closed")
	case c.out <- cp:
		return nil
	}
}

func (c *chanConn) Recv() (*Message, error) {
	select {
	case <-c.closed:
		return nil, io.EOF
	case m, ok := <-c.in:
		if !ok {
			return nil, io.EOF
		}
		return m, nil
	}
}

func (c *chanConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

// streamConn adapts an io.ReadWriteCloser (e.g. a TCP connection) to
// Conn with buffered framing.
type streamConn struct {
	rw io.ReadWriteCloser
	br *bufio.Reader
	bw *bufio.Writer
}

// NewStreamConn wraps a byte stream in the message framing.
func NewStreamConn(rw io.ReadWriteCloser) Conn {
	return &streamConn{rw: rw, br: bufio.NewReaderSize(rw, 1<<16), bw: bufio.NewWriterSize(rw, 1<<16)}
}

func (s *streamConn) Send(m *Message) error {
	if err := WriteMessage(s.bw, m); err != nil {
		return err
	}
	return s.bw.Flush()
}

func (s *streamConn) Recv() (*Message, error) { return ReadMessage(s.br) }

func (s *streamConn) Close() error { return s.rw.Close() }
