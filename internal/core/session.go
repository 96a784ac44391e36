package core

import (
	"context"
	"encoding/binary"
	"math/rand"
	"sync"
	"time"

	"adcnn/internal/compress"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// arrival is one decoded intermediate result routed to its image's
// collector, carrying everything the collector needs to reconstruct the
// tile's phase timeline: the Central-side timestamps (central mono ns),
// the Conv-side timing record, and the session's clock-offset estimate
// at arrival time.
type arrival struct {
	tile     int
	node     int
	t        *tensor.Tensor
	wire     int // result payload bytes (downlink)
	taskWire int // task payload bytes (uplink)

	enqNs    int64 // task enqueued on the session
	sentNs   int64 // task frame handed to the socket
	recvNs   int64 // result frame read back
	timing   *ConvTiming
	offsetNs int64
}

// pendingKey identifies one outstanding tile: results are demultiplexed
// by (imageID, tileID), so a late result for a finished image has no
// entry and is dropped as stale — replacing the old per-Infer "skip
// mismatched ImageID" scan.
type pendingKey struct {
	img  uint32
	tile uint32
}

// imageCollector gathers one image's arrivals. The session recv loops
// push into ch (buffered to the tile count, so delivery never blocks);
// abort carries a fatal dispatch failure to the waiter.
type imageCollector struct {
	img  uint32
	ch   chan arrival
	fail chan struct{}
	once sync.Once
	err  error
}

func newImageCollector(img uint32, tiles int) *imageCollector {
	return &imageCollector{
		img:  img,
		ch:   make(chan arrival, tiles),
		fail: make(chan struct{}),
	}
}

// abort delivers a fatal error to the image's waiter (first error wins).
func (col *imageCollector) abort(err error) {
	col.once.Do(func() {
		col.err = err
		close(col.fail)
	})
}

// pendingEntry is one outstanding tile's table row: the collector it
// routes to plus the Central-side timestamps of its latest dispatch
// attempt (redispatch overwrites them, so the breakdown describes the
// attempt that actually produced the result).
type pendingEntry struct {
	col       *imageCollector
	node      int   // session the tile was last enqueued on
	enqNs     int64 // central mono ns, last enqueue
	sentNs    int64 // central mono ns, frame handed to the socket
	taskBytes int   // task payload bytes, for the link-rate estimate
}

// demux is the pending table shared by every node session.
type demux struct {
	mu    sync.Mutex
	m     map[pendingKey]*pendingEntry
	stale *telemetry.Counter // nil disables
}

func (d *demux) init() { d.m = make(map[pendingKey]*pendingEntry) }

// register enters every tile of an image into the table.
func (d *demux) register(col *imageCollector, tiles int) {
	d.mu.Lock()
	for t := 0; t < tiles; t++ {
		d.m[pendingKey{col.img, uint32(t)}] = &pendingEntry{col: col, node: -1}
	}
	d.mu.Unlock()
}

// markEnqueued stamps a tile's dispatch-queue entry time, owner, and
// uplink payload size.
func (d *demux) markEnqueued(k pendingKey, node int, ns int64, bytes int) {
	d.mu.Lock()
	if e, ok := d.m[k]; ok {
		e.node = node
		e.enqNs = ns
		e.sentNs = 0
		e.taskBytes = bytes
	}
	d.mu.Unlock()
}

// markSent stamps the instant a tile's frame was handed to the socket.
func (d *demux) markSent(k pendingKey, ns int64) {
	d.mu.Lock()
	if e, ok := d.m[k]; ok {
		e.sentNs = ns
	}
	d.mu.Unlock()
}

// claim removes and returns the entry for a key. The removal makes
// delivery exactly-once: a duplicate or late result finds no entry.
func (d *demux) claim(k pendingKey) (*pendingEntry, bool) {
	d.mu.Lock()
	e, ok := d.m[k]
	if ok {
		delete(d.m, k)
	}
	d.mu.Unlock()
	return e, ok
}

// perNode counts outstanding tiles by owning session (-1 = unassigned),
// for the /debug/sessions snapshot.
func (d *demux) perNode() map[int]int {
	out := make(map[int]int)
	d.mu.Lock()
	for _, e := range d.m {
		out[e.node]++
	}
	d.mu.Unlock()
	return out
}

// dropImage removes an image's remaining entries (deadline hit or the
// image finished); later results for it count as stale.
func (d *demux) dropImage(img uint32, tiles int) {
	d.mu.Lock()
	for t := 0; t < tiles; t++ {
		delete(d.m, pendingKey{img, uint32(t)})
	}
	d.mu.Unlock()
}

// markStale counts a result that arrived for an already-settled tile.
func (d *demux) markStale() {
	if d.stale != nil {
		d.stale.Inc()
	}
}

// Reconnect backoff bounds for node sessions.
const (
	reconnectBase = 50 * time.Millisecond
	reconnectMax  = 2 * time.Second
	dialTimeout   = 5 * time.Second
)

// nodeSession owns one Central's relationship with one Conv node: a
// persistent send loop draining a bounded task queue onto the
// connection, and a persistent recv loop decoding results and demuxing
// them through the Central's pending table. Both loops live for the
// connection's lifetime; a supervisor restarts them after a reconnect.
// Queued tasks stranded by a connection failure are handed back to the
// Central for redispatch to surviving nodes, so a node death costs at
// most the tiles already on its wire.
type nodeSession struct {
	id int // node index (0-based)
	c  *Central
	// dial, when set, lets the session re-establish a failed connection
	// with exponential backoff instead of staying dead forever.
	dial Dialer

	sendq chan *Message

	mu          sync.Mutex
	conn        Conn
	alive       bool
	closed      bool          // RemoveNode tombstone: never reconnect
	down        chan struct{} // closed when the session goes down
	pendingSend *Message      // in-flight message a failed Send may strand
	epochs      int           // connection epochs started (1 = original conn)
	backoff     time.Duration // current reconnect backoff (0 when connected)

	// offset maps this Conv node's monotonic clock onto the Central's,
	// refreshed from every task→result exchange (RTT-midpoint EWMA).
	offset *telemetry.OffsetEstimator

	// link profiles the network path: probe-refreshed RTT plus passive
	// uplink/downlink rate estimates from tile phase timings.
	link linkState

	queueDepth  *telemetry.Gauge // nil disables
	offsetGauge *telemetry.Gauge // nil disables
}

func newNodeSession(id int, c *Central, conn Conn, dial Dialer) *nodeSession {
	s := &nodeSession{
		id:     id,
		c:      c,
		dial:   dial,
		sendq:  make(chan *Message, 256),
		conn:   conn,
		alive:  true,
		down:   make(chan struct{}),
		offset: telemetry.NewOffsetEstimator(0),
	}
	if m := c.metrics; m != nil {
		s.queueDepth = m.SendQueueDepth.With(nodeLabel(id))
		s.offsetGauge = m.ClockOffset.With(nodeLabel(id))
		s.link.rttGauge = m.LinkRTT.With(nodeLabel(id))
		s.link.upGauge = m.LinkUp.With(nodeLabel(id))
		s.link.downGauge = m.LinkDown.With(nodeLabel(id))
		s.link.probeCt = m.LinkProbes.With(nodeLabel(id))
	}
	return s
}

// sendProbe enqueues one link probe, best-effort: a full send queue
// means tiles are flowing (and already feeding the estimators), so the
// probe is simply skipped rather than adding queue pressure. The 8-byte
// payload is patched with the send timestamp by the send loop just
// before the socket write, so queue wait does not inflate the RTT.
func (s *nodeSession) sendProbe() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.alive || s.closed {
		return
	}
	m := &Message{Kind: KindProbe, NodeID: uint32(s.id), Payload: make([]byte, 8)}
	select {
	case s.sendq <- m:
	default:
	}
}

// Alive reports whether the session currently has a usable connection.
func (s *nodeSession) Alive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alive && !s.closed
}

// retire tombstones the session (RemoveNode): closing the connection
// ends the current epoch, and the supervisor — seeing the closed flag —
// redispatches stranded work and exits instead of reconnecting.
func (s *nodeSession) retire() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// isClosed reports whether retire has tombstoned the session.
func (s *nodeSession) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// closeConn closes the session's current connection (Shutdown path).
func (s *nodeSession) closeConn() {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// enqueue hands a task to the send loop. It returns false when the
// session is down or the contexts are cancelled, so the dispatcher can
// fall over to another node. The channel send happens under the session
// mutex so it cannot race the markDown drain: once markDown has run, no
// message can slip into a queue nobody reads.
func (s *nodeSession) enqueue(ctx context.Context, m *Message) bool {
	for {
		s.mu.Lock()
		if !s.alive || s.closed {
			s.mu.Unlock()
			return false
		}
		select {
		case s.sendq <- m:
			s.mu.Unlock()
			s.observeQueue()
			return true
		default:
		}
		down := s.down
		s.mu.Unlock()
		// Queue full: wait for drain, death, or cancellation.
		select {
		case <-down:
			return false
		case <-ctx.Done():
			return false
		case <-s.c.ctx.Done():
			return false
		case <-time.After(time.Millisecond):
		}
	}
}

func (s *nodeSession) observeQueue() {
	if s.queueDepth != nil {
		s.queueDepth.Set(float64(len(s.sendq)))
	}
}

// markDown flags the session dead and returns every queued (plus the
// possibly half-sent) task for redispatch.
func (s *nodeSession) markDown() []*Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.alive {
		return nil
	}
	s.alive = false
	close(s.down)
	var orphans []*Message
	if s.pendingSend != nil {
		orphans = append(orphans, s.pendingSend)
		s.pendingSend = nil
	}
	for {
		select {
		case m := <-s.sendq:
			orphans = append(orphans, m)
		default:
			s.observeQueue()
			return orphans
		}
	}
}

// revive installs a fresh connection after a reconnect.
func (s *nodeSession) revive(conn Conn) {
	s.mu.Lock()
	s.conn = conn
	s.alive = true
	s.down = make(chan struct{})
	s.mu.Unlock()
}

// run is the session supervisor: it spawns one send loop and one recv
// loop per connection epoch, tears the epoch down on the first failure
// (redispatching stranded tasks), and — when a dialer is configured —
// reconnects with exponential backoff and starts the next epoch.
func (s *nodeSession) run() {
	defer s.c.loopWG.Done()
	c := s.c
	for {
		s.mu.Lock()
		conn := s.conn
		s.epochs++
		s.mu.Unlock()

		stop := make(chan struct{})
		sendDone := make(chan error, 1)
		recvDone := make(chan error, 1)
		go func() { sendDone <- s.sendLoop(conn, stop) }()
		go func() { recvDone <- s.recvLoop(conn) }()

		shutdown := false
		sendOpen, recvOpen := true, true
		select {
		case <-c.ctx.Done():
			shutdown = true
		case <-sendDone:
			sendOpen = false
		case <-recvDone:
			recvOpen = false
		}
		// Tear the epoch down: closing the connection unblocks whichever
		// loop is still inside Send/Recv.
		close(stop)
		_ = conn.Close()
		if sendOpen {
			<-sendDone
		}
		if recvOpen {
			<-recvDone
		}
		if shutdown || c.ctx.Err() != nil {
			s.markDown()
			return
		}

		// Connection failure (or a RemoveNode tombstone closing the
		// connection): the node is dead until proven otherwise.
		orphans := s.markDown()
		if c.metrics != nil {
			c.metrics.ConnDrops.With(nodeLabel(s.id)).Inc()
		}
		c.flight.Record("session-down", 0, -1, s.id, "transport failure")
		// A failover strands in-flight work: dump the flight ring for
		// every image that had tasks queued on this session.
		seen := map[uint32]bool{}
		for _, m := range orphans {
			if m.Kind == KindTask && !seen[m.ImageID] {
				seen[m.ImageID] = true
				c.flight.Dump("session-failover", m.ImageID)
			}
		}
		s.c.redispatch(orphans)
		if s.isClosed() || s.dial == nil {
			return
		}
		if !s.reconnect() {
			return
		}
	}
}

// sendLoop drains the task queue onto the connection. A Send error ends
// the epoch; the failed message is left in pendingSend for markDown.
func (s *nodeSession) sendLoop(conn Conn, stop chan struct{}) error {
	for {
		select {
		case <-s.c.ctx.Done():
			return nil
		case <-stop:
			return nil
		case m := <-s.sendq:
			s.observeQueue()
			if m.Kind == KindProbe {
				// Stamp t0 directly into the payload at the last moment:
				// the probe measures the socket round trip, not the time
				// it queued behind tiles. A probe is never redispatched,
				// so it skips the pendingSend handoff.
				binary.LittleEndian.PutUint64(m.Payload, uint64(monoNow()))
				if err := conn.Send(m); err != nil {
					return err
				}
				continue
			}
			s.mu.Lock()
			s.pendingSend = m
			s.mu.Unlock()
			// Stamp t0 just before the write so the uplink phase (and the
			// offset estimator's request leg) includes the serialization.
			s.c.pending.markSent(pendingKey{m.ImageID, m.TileID}, monoNow())
			if err := conn.Send(m); err != nil {
				return err
			}
			s.c.flight.Record("sent", m.ImageID, int(m.TileID), s.id, "")
			// Release the task's pooled payload only if markDown has not
			// claimed the message in the window after Send returned: a
			// concurrent epoch teardown orphans pendingSend for redispatch,
			// and a redispatched frame must keep its payload intact.
			s.mu.Lock()
			owned := s.pendingSend == m
			s.pendingSend = nil
			s.mu.Unlock()
			if owned {
				m.ReleasePayload()
			}
		}
	}
}

// recvLoop decodes results off the connection and routes each through
// the pending table to its image's collector, folding each exchange's
// timestamps into the session's clock-offset estimate on the way.
func (s *nodeSession) recvLoop(conn Conn) error {
	for {
		m, err := conn.Recv()
		if err != nil {
			return err
		}
		recvNs := monoNow()
		if m.Kind == KindProbe {
			// Probe echo: the payload still holds our send timestamp, the
			// timing record stamps the node-side hold, so the exchange
			// feeds the offset/RTT estimator exactly like a task→result
			// pair — but with no compute time inside the window.
			if m.Timing != nil && len(m.Payload) == 8 {
				t0 := int64(binary.LittleEndian.Uint64(m.Payload))
				offsetNs, _ := s.offset.Update(t0, m.Timing.RecvNs, m.Timing.SendNs, recvNs)
				if s.offsetGauge != nil {
					s.offsetGauge.Set(float64(offsetNs) / 1e9)
				}
				s.link.observeProbe(s.offset.RTT())
			}
			m.ReleasePayload()
			continue
		}
		if m.Kind != KindResult {
			continue
		}
		e, ok := s.c.pending.claim(pendingKey{m.ImageID, m.TileID})
		if !ok {
			s.c.pending.markStale()
			s.c.flight.Record("stale", m.ImageID, int(m.TileID), s.id, "")
			continue
		}
		var offsetNs int64
		if m.Timing != nil && e.sentNs > 0 {
			offsetNs, _ = s.offset.Update(e.sentNs, m.Timing.RecvNs, m.Timing.SendNs, recvNs)
			if s.offsetGauge != nil {
				s.offsetGauge.Set(float64(offsetNs) / 1e9)
			}
		} else {
			offsetNs = s.offset.Offset()
		}
		// Decode into a pool-backed tensor, then hand the wire buffer
		// straight back: the decoders fully copy the payload out, so the
		// frame's bytes are dead the moment DecodeInto returns.
		t := new(tensor.Tensor)
		var derr error
		switch {
		case m.Compressed:
			derr = compress.DecodeInto(t, m.Payload)
		case m.Quantized:
			// Levels-native downlink: dequantize the uint8 levels into
			// the collect tensor in one fused pass.
			derr = DequantizeQuantTensorInto(t, m.Payload)
		default:
			derr = DecodeTensorInto(t, m.Payload)
		}
		wire := len(m.Payload)
		m.ReleasePayload()
		if derr != nil {
			// An undecodable result is as good as a missed tile: the
			// image zero-fills it at the deadline.
			s.c.flight.Record("decode-error", m.ImageID, int(m.TileID), s.id, derr.Error())
			continue
		}
		s.c.flight.Record("result", m.ImageID, int(m.TileID), s.id, "")
		e.col.ch <- arrival{
			tile: int(m.TileID), node: s.id, t: t, wire: wire,
			taskWire: e.taskBytes,
			enqNs:    e.enqNs, sentNs: e.sentNs, recvNs: recvNs,
			timing: m.Timing, offsetNs: offsetNs,
		}
	}
}

// reconnect dials until it succeeds or the Central shuts down, with
// exponential backoff, then revives the session and the node's
// scheduler estimate.
func (s *nodeSession) reconnect() bool {
	c := s.c
	backoff := reconnectBase
	for {
		s.mu.Lock()
		s.backoff = backoff
		s.mu.Unlock()
		// ±20% jitter: several replicas losing the same node reconnect on
		// the same schedule otherwise, and the restarted node takes every
		// redial in one synchronized burst.
		sleep := backoff + time.Duration((rand.Float64()-0.5)*0.4*float64(backoff))
		select {
		case <-c.ctx.Done():
			return false
		case <-time.After(sleep):
		}
		if s.isClosed() {
			return false
		}
		dctx, cancel := context.WithTimeout(c.ctx, dialTimeout)
		conn, err := s.dial(dctx)
		cancel()
		if err == nil && conn != nil {
			if c.metrics != nil {
				conn = InstrumentConn(conn, c.metrics.Wire)
			}
			s.mu.Lock()
			s.backoff = 0
			s.mu.Unlock()
			// The reconnected node may sit behind a different path; let
			// the rate estimates rebuild from fresh samples.
			s.link.reset()
			s.revive(conn)
			c.reviveNode(s.id)
			c.flight.Record("session-reconnect", 0, -1, s.id, "")
			return true
		}
		backoff *= 2
		if backoff > reconnectMax {
			backoff = reconnectMax
		}
	}
}

// debugInfo snapshots the session state for /debug/sessions.
func (s *nodeSession) debugInfo() SessionDebug {
	s.mu.Lock()
	info := SessionDebug{
		Node:      s.id,
		Alive:     s.alive,
		Epochs:    s.epochs,
		BackoffMs: float64(s.backoff) / 1e6,
	}
	s.mu.Unlock()
	info.QueueDepth = len(s.sendq)
	info.ClockOffsetNs = s.offset.Offset()
	info.RTTNs = s.offset.RTT()
	info.OffsetSamples = s.offset.Samples()
	info.UplinkBps, info.DownlinkBps, info.LinkSamples, info.LinkProbes = s.link.snapshot()
	return info
}
