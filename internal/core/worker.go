package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"adcnn/internal/compress"
	"adcnn/internal/models"
	"adcnn/internal/nn"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// Worker is a Conv node: it stores the separable layer blocks' weights,
// processes input tiles, applies the communication-reduction boundary,
// and streams intermediate results back (paper Figure 8, right side).
type Worker struct {
	ID    int
	Model *models.Model
	// Metrics, when set, records task counts and per-tile process time.
	Metrics *WorkerMetrics
}

// NewWorker creates a Conv-node worker around a model instance (the
// worker uses only Front and Boundary).
func NewWorker(id int, m *models.Model) *Worker {
	return &Worker{ID: id, Model: m}
}

// Serve processes tasks from conn until the context is cancelled or the
// peer disconnects cleanly (both return nil). A mid-stream transport
// failure is returned to the caller, so operators can tell a Central
// that hung up from a network that broke.
//
// Serve is the single-session convenience wrapper: it runs one
// NodeServer session over conn. A node serving several Centrals at once
// shares one NodeServer across its accept loop instead.
func (w *Worker) Serve(ctx context.Context, conn Conn) error {
	return NewNodeServer(w, 0).ServeConn(ctx, conn)
}

// DefaultSessionQueue is the per-session bounded compute queue depth: a
// session's recv loop decodes at most this many tasks ahead of the
// compute loop before TCP backpressure reaches the Central.
const DefaultSessionQueue = 4

// NodeServer is the multi-session serving state of one Conv node: a
// reconnecting Central's new connection can overlap its dead one, and
// several Centrals may share one node pool, so every connection gets an
// independent session (its own receive/compute goroutine pair,
// timing buffers and bounded compute queue). The sessions share only
// the worker's model and the host's cores.
type NodeServer struct {
	w     *Worker
	queue int

	mu       sync.Mutex
	seq      uint64
	sessions map[uint64]*workerSession
}

// NewNodeServer wraps w for concurrent multi-Central serving. queue ≤ 0
// uses DefaultSessionQueue.
func NewNodeServer(w *Worker, queue int) *NodeServer {
	if queue <= 0 {
		queue = DefaultSessionQueue
	}
	return &NodeServer{w: w, queue: queue, sessions: make(map[uint64]*workerSession)}
}

// Worker returns the wrapped worker.
func (ns *NodeServer) Worker() *Worker { return ns.w }

// ActiveSessions reports how many Central sessions are attached.
func (ns *NodeServer) ActiveSessions() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.sessions)
}

// WorkerSessionDebug is one attached session's state snapshot, served as
// JSON at /debug/worker on the Conv daemon's metrics mux.
type WorkerSessionDebug struct {
	Session    uint64  `json:"session"`
	AgeSeconds float64 `json:"age_seconds"`
	Tiles      uint64  `json:"tiles"`
	QueueDepth int     `json:"queue_depth"`
}

// Sessions snapshots every attached session, oldest first.
func (ns *NodeServer) Sessions() []WorkerSessionDebug {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	out := make([]WorkerSessionDebug, 0, len(ns.sessions))
	for _, s := range ns.sessions {
		out = append(out, WorkerSessionDebug{
			Session:    s.id,
			AgeSeconds: time.Since(s.started).Seconds(),
			Tiles:      s.tilesDone.Load(),
			QueueDepth: len(s.tasks),
		})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Session < out[j-1].Session; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// workerTask is one decoded tile task queued between a session's recv
// and compute loops. Tasks are pooled: the decoded tensor (or quantized
// levels) ride along so decode can run ahead of compute without
// reallocating per tile.
type workerTask struct {
	img, tile       uint32
	traceID, spanID uint64
	quantized       bool
	x               *tensor.Tensor
	qt              *QuantTile
	tm              ConvTiming
}

var workerTaskPool = sync.Pool{New: func() any {
	return &workerTask{x: new(tensor.Tensor), qt: new(QuantTile)}
}}

// workerSession is one Central's connection to the node: a recv loop
// (decode into the bounded task queue) and a compute loop (compute,
// encode, send) with per-session scratch, so concurrent sessions share
// no mutable state.
type workerSession struct {
	ns      *NodeServer
	id      uint64
	conn    Conn
	tasks   chan *workerTask
	dead    chan struct{} // closed when the compute loop fails
	started time.Time

	tilesDone atomic.Uint64
	taskCtr   *telemetry.Counter // nil disables
}

// ServeConn runs one Central session over conn until the context is
// cancelled or the peer disconnects cleanly (both return nil); a
// mid-stream transport failure or a frame that is not a task is returned.
// Safe for concurrent use: each call is an independent session.
func (ns *NodeServer) ServeConn(ctx context.Context, conn Conn) error {
	if ctx == nil {
		ctx = context.Background()
	}
	w := ns.w
	met := w.Metrics
	s := &workerSession{
		ns: ns, conn: conn,
		tasks:   make(chan *workerTask, ns.queue),
		dead:    make(chan struct{}),
		started: time.Now(),
	}
	if met != nil {
		s.taskCtr = met.Tasks.With(nodeLabel(w.ID))
	}
	ns.mu.Lock()
	ns.seq++
	s.id = ns.seq
	ns.sessions[s.id] = s
	ns.mu.Unlock()
	defer func() {
		ns.mu.Lock()
		delete(ns.sessions, s.id)
		ns.mu.Unlock()
	}()

	// Cancellation closes the connection, which unblocks Recv; the stop
	// channel reaps the watchdog on a normal return.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.Close()
		case <-stop:
		}
	}()

	compErr := make(chan error, 1)
	go func() { compErr <- s.computeLoop(ctx) }()

	rerr := s.recvLoop(ctx)
	close(s.tasks)
	cerr := <-compErr
	// A compute-loop failure may leave undone tasks in the queue; send
	// their pooled scratch home.
	for t := range s.tasks {
		putWorkerTask(t)
	}
	if cerr != nil {
		return cerr
	}
	return rerr
}

// putWorkerTask returns a task's scratch to the pool.
func putWorkerTask(t *workerTask) {
	t.qt.Release()
	workerTaskPool.Put(t)
}

// recvLoop reads task frames off the connection, decodes each into a
// pooled task, and queues it for the compute loop. It returns nil on a
// clean end (EOF, cancellation, or a compute-loop failure that already
// owns the error) and the transport or protocol error otherwise.
func (s *workerSession) recvLoop(ctx context.Context) error {
	w := s.ns.w
	for {
		m, err := s.conn.Recv()
		if err != nil {
			select {
			case <-s.dead:
				// The compute loop failed and closed the connection to
				// unblock us; its error is the one that matters.
				return nil
			default:
			}
			if errors.Is(err, io.EOF) || ctx.Err() != nil {
				return nil // peer closed cleanly or we were cancelled
			}
			return fmt.Errorf("core: worker %d: recv: %w", w.ID, err)
		}
		if m.Kind != KindTask {
			m.ReleasePayload()
			return fmt.Errorf("core: worker %d: unexpected message kind %d", w.ID, m.Kind)
		}
		t := workerTaskPool.Get().(*workerTask)
		t.tm = ConvTiming{RecvNs: monoNow()}
		t.img, t.tile = m.ImageID, m.TileID
		t.traceID, t.spanID = m.TraceID, m.SpanID
		t.quantized = m.Quantized
		if t.quantized {
			err = DecodeQuantTensorInto(t.qt, m.Payload)
		} else {
			err = DecodeTensorInto(t.x, m.Payload)
		}
		m.ReleasePayload()
		if err != nil {
			putWorkerTask(t)
			return fmt.Errorf("core: worker %d: %w", w.ID, err)
		}
		t.tm.DecodeNs = monoNow()
		select {
		case s.tasks <- t:
		case <-s.dead:
			putWorkerTask(t)
			return nil
		case <-ctx.Done():
			putWorkerTask(t)
			return nil
		}
	}
}

// computeLoop drains the task queue: run Front + Boundary, encode,
// send the result. Results leave in task order, preserving the
// single-session wire contract. Per-session encode scratch is reused
// across tiles; the result message is only borrowed by Send.
func (s *workerSession) computeLoop(ctx context.Context) error {
	w := s.ns.w
	met := w.Metrics
	res := new(Message)
	var encBuf []byte
	defer func() { tensor.PutBytes(encBuf) }()
	for t := range s.tasks {
		if ctx.Err() != nil {
			putWorkerTask(t)
			return nil
		}
		t.tm.ComputeStartNs = monoNow()
		var (
			out                   []byte
			compressed, quantized bool
			err                   error
		)
		if t.quantized {
			out, compressed, quantized, err = w.computeEncodeLevels(t.qt, t.x, &t.tm, encBuf)
		} else {
			out, compressed, quantized, err = w.computeEncode(t.x, &t.tm, encBuf)
		}
		if err != nil {
			putWorkerTask(t)
			return s.fail(fmt.Errorf("core: worker %d: %w", w.ID, err))
		}
		encBuf = out
		s.tilesDone.Add(1)
		if met != nil {
			s.taskCtr.Inc()
			met.Process.ObserveDuration(t.tm.EncodeNs - t.tm.ComputeStartNs)
		}
		t.tm.SendNs = monoNow()
		*res = Message{
			Kind: KindResult, ImageID: t.img, TileID: t.tile,
			Compressed: compressed, Quantized: quantized, Payload: out,
			TraceID: t.traceID, SpanID: t.spanID, Timing: &t.tm,
		}
		err = s.conn.Send(res)
		putWorkerTask(t)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return s.fail(fmt.Errorf("core: worker %d: send: %w", w.ID, err))
		}
	}
	return nil
}

// fail marks the session dead and closes the connection so a recv loop
// blocked in Recv (or on the full task queue) unblocks and defers to
// this error.
func (s *workerSession) fail(err error) error {
	close(s.dead)
	_ = s.conn.Close()
	return err
}

// computeEncode runs one decoded tile through Front + Boundary and
// encodes the result into buf (a pooled scratch buffer the caller reuses
// across tiles; too small and it is swapped for a bigger pooled one),
// stamping the compute-done and encode-done marks into the timing
// record. The returned slice is the (possibly replaced) buffer — the
// caller must retain it as the next call's buf. The two flags report
// how the payload is encoded: boundary-codec compressed, or quantized
// uint8 levels (mutually exclusive).
func (w *Worker) computeEncode(x *tensor.Tensor, tm *ConvTiming, buf []byte) ([]byte, bool, bool, error) {
	return w.boundaryEncode(w.Model.Front.Forward(x, false), tm, buf)
}

// computeEncodeLevels runs one quantized tile. When the model's front
// opens with an int8-enabled plain convolution, the decoded levels feed
// its quantized GEMM directly — the no-dequant fast path of the int8
// operating mode. Otherwise (residual-entry front, or a worker that
// never called QuantizeInt8) the tile is dequantized into x and takes
// the ordinary f32 path, so a mixed deployment still computes correctly.
func (w *Worker) computeEncodeLevels(q *QuantTile, x *tensor.Tensor, tm *ConvTiming, buf []byte) ([]byte, bool, bool, error) {
	if len(q.Shape) == 4 && q.Shape[0] == 1 {
		if y, ok := w.Model.ForwardFrontLevels(q.Levels, q.Shape[1], q.Shape[2], q.Shape[3], q.Affine); ok {
			return w.boundaryEncode(y, tm, buf)
		}
	}
	q.DequantizeInto(x)
	return w.computeEncode(x, tm, buf)
}

// boundaryEncode applies the boundary ops to a Front output and encodes
// the result into buf (pooled, reused across tiles — see computeEncode).
// Encoding preference: the boundary codec when the model clips and
// quantizes the boundary; otherwise, in the int8 operating mode, the
// result ships as uint8 affine levels (levels-native downlink — Central
// dequantizes in one fused pass, and the frame is 4× smaller than
// float32); float32 only as the fallback for value ranges that defy a
// finite affine (NaN/Inf activations).
func (w *Worker) boundaryEncode(y *tensor.Tensor, tm *ConvTiming, buf []byte) ([]byte, bool, bool, error) {
	opt := w.Model.Opt
	clipped := opt.Clipped()
	if clipped {
		// The boundary's clipped ReLU runs on the Conv node so the result
		// is sparse before encoding. It clips in place: y is the worker's
		// own — a fresh front output, or its decode scratch when the front
		// is empty.
		w.Model.Boundary.Layers[0].(*nn.ClippedReLU).ForwardInPlace(y)
	}
	tm.ComputeEndNs = monoNow()
	if clipped && opt.QuantBits > 0 {
		p := compress.NewPipeline(opt.QuantBits, opt.ClipHi-opt.ClipLo)
		// Pre-size to the worst case so the fused encoder never grows the
		// buffer mid-scan; at steady state the same buffer serves every tile.
		buf = growBytes(buf, p.MaxEncodedSize(y))
		out, err := p.EncodeInto(buf[:0], y)
		tm.EncodeNs = monoNow()
		if err != nil {
			return buf[:0], true, false, err
		}
		return out, true, false, nil
	}
	out, levels := encodeLevelsOrRaw(buf, y, opt.Int8)
	tm.EncodeNs = monoNow()
	return out, false, levels, nil
}
