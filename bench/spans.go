package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"adcnn/internal/core"
	"adcnn/internal/telemetry"
)

// The traced run records spans from outside the runtime: around
// Infer/Wait, and around every Send and Recv on the core.Conn of both
// ends of each node socket. Nothing is written until the run ends.

// frameRec is one Send or Recv call on a wrapped core.Conn. It holds no
// pointers, so a long trace costs the collector nothing to scan.
type frameRec struct {
	kind       core.MsgKind
	img, tile  uint32
	payload    int32
	start, end int64 // ns since the recorder's epoch
}

// recordingConn wraps one end of a node socket. Sends and receives come
// from different goroutines (send loop / recv loop on the Central, compute
// loop / recv loop on a node) but each list has one writer, and the
// lists are read only after both loops have ended.
type recordingConn struct {
	core.Conn
	rec   *recorder
	sends []frameRec
	recvs []frameRec
}

func (c *recordingConn) Send(m *core.Message) error {
	if !c.rec.on.Load() {
		return c.Conn.Send(m)
	}
	f := frameRec{kind: m.Kind, img: m.ImageID, tile: m.TileID, payload: int32(len(m.Payload))}
	f.start = int64(time.Since(c.rec.epoch))
	err := c.Conn.Send(m)
	f.end = int64(time.Since(c.rec.epoch))
	if err == nil {
		c.sends = append(c.sends, f)
	}
	return err
}

func (c *recordingConn) Recv() (*core.Message, error) {
	start := int64(time.Since(c.rec.epoch))
	m, err := c.Conn.Recv()
	if err != nil || !c.rec.on.Load() {
		return m, err
	}
	c.recvs = append(c.recvs, frameRec{
		kind: m.Kind, img: m.ImageID, tile: m.TileID, payload: int32(len(m.Payload)),
		start: start, end: int64(time.Since(c.rec.epoch)),
	})
	return m, nil
}

// imageRec is one image of the traced window, timed around Infer/Wait.
type imageRec struct {
	img        uint32 // the runtime's image ID, as carried on tile frames
	start, end int64
}

// recorder owns the wrapped conns of one traced cluster. Recording is
// off until the traced window starts, so the same cluster also serves
// the untraced reference window that trace.overhead_pct compares with.
type recorder struct {
	on      atomic.Bool
	epoch   time.Time
	central []*recordingConn // by node
	node    []*recordingConn
	images  []imageRec
}

func newRecorder(nodes int) *recorder {
	r := &recorder{epoch: time.Now()}
	r.central = make([]*recordingConn, nodes)
	r.node = make([]*recordingConn, nodes)
	return r
}

func (r *recorder) wrapCentral(k int, c core.Conn) core.Conn {
	r.central[k] = &recordingConn{Conn: c, rec: r}
	return r.central[k]
}

func (r *recorder) wrapNode(k int, c core.Conn) core.Conn {
	r.node[k] = &recordingConn{Conn: c, rec: r}
	return r.node[k]
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// span is one recorded interval: name, start, end, the span that caused
// it and the image it belongs to. Track is the row it is drawn on.
type span struct {
	id, parent int // parent < 0: a root
	name       string
	track      int
	node       int // the Conv node concerned; -1 for the client's spans
	img, tile  uint32
	payload    int32 // frame spans: payload bytes
	start, end int64
}

// Tracks of the Chrome trace: the client loop, then per node the
// Central's send and recv loops and the node itself.
const trackClient = 0

func trackCentralSend(k int) int { return 1 + 3*k }
func trackCentralRecv(k int) int { return 2 + 3*k }
func trackNode(k int) int        { return 3 + 3*k }

type tileKey struct{ img, tile uint32 }

// buildSpans turns the frame records of images [lo, hi) of r.images into
// a span tree per image:
//
//	image                  around Infer / Submit+Wait
//	├─ central.send        task frame written by the session send loop
//	├─ node.busy           task received by the node → result sent
//	│  └─ node.send        result frame written
//	├─ central.recv        result frame read (from the node's send onward)
//	└─ central.tail        last result read → output returned
//	                       (collect, reassemble and the back layers)
func (r *recorder) buildSpans(lo, hi int) []span {
	byImg := make(map[uint32]int, hi-lo)
	var spans []span
	add := func(s span) int {
		s.id = len(spans)
		spans = append(spans, s)
		return s.id
	}
	lastRecv := make(map[uint32]int64, hi-lo)
	for _, im := range r.images[lo:hi] {
		byImg[im.img] = add(span{parent: -1, name: "image", track: trackClient, node: -1, img: im.img, start: im.start, end: im.end})
	}
	for k := range r.central {
		taskAt := make(map[tileKey]int64) // node-side task receipt
		for _, f := range r.node[k].recvs {
			if f.kind == core.KindTask {
				taskAt[tileKey{f.img, f.tile}] = f.end
			}
		}
		sentAt := make(map[tileKey]int64) // node-side result write start
		for _, f := range r.node[k].sends {
			if f.kind != core.KindResult {
				continue
			}
			p, ok := byImg[f.img]
			if !ok {
				continue
			}
			key := tileKey{f.img, f.tile}
			sentAt[key] = f.start
			busy := add(span{parent: p, name: "node.busy", track: trackNode(k), node: k, img: f.img, tile: f.tile, start: taskAt[key], end: f.end})
			add(span{parent: busy, name: "node.send", track: trackNode(k), node: k, img: f.img, tile: f.tile, payload: f.payload, start: f.start, end: f.end})
		}
		for _, f := range r.central[k].sends {
			if p, ok := byImg[f.img]; ok && f.kind == core.KindTask {
				add(span{parent: p, name: "central.send", track: trackCentralSend(k), node: k, img: f.img, tile: f.tile, payload: f.payload, start: f.start, end: f.end})
			}
		}
		for _, f := range r.central[k].recvs {
			p, ok := byImg[f.img]
			if !ok || f.kind != core.KindResult {
				continue
			}
			// Recv blocks while the link is idle; the frame's own time
			// starts when the node began writing it.
			start := f.start
			if s, ok := sentAt[tileKey{f.img, f.tile}]; ok && s > start {
				start = s
			}
			add(span{parent: p, name: "central.recv", track: trackCentralRecv(k), node: k, img: f.img, tile: f.tile, payload: f.payload, start: start, end: f.end})
			if f.end > lastRecv[f.img] {
				lastRecv[f.img] = f.end
			}
		}
	}
	for img, at := range lastRecv {
		p := byImg[img]
		if at < spans[p].end {
			add(span{parent: p, name: "central.tail", track: trackClient, node: -1, img: img, start: at, end: spans[p].end})
		}
	}
	return spans
}

// selfTime returns, per span, its duration minus the part of its
// interval that its child spans cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTime(spans []span) []int64 {
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.end - s.start) - coveredWithin(children[i], s.start, s.end)
	}
	return self
}

// coveredWithin returns the length of the union of the intervals,
// clipped to [lo, hi].
func coveredWithin(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered int64
	at := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			covered += e - s
			at = e
		}
	}
	return covered
}

// writeChromeTrace writes the spans through the repo's telemetry.Trace
// so the file opens in Perfetto / chrome://tracing like the runtime's
// own traces. self[i] rides along as an argument of span i.
func (r *recorder) writeChromeTrace(path string, spans []span, self []int64) error {
	tr := telemetry.NewTrace()
	tr.SetThreadName(trackClient, "client")
	for k := range r.central {
		tr.SetThreadName(trackCentralSend(k), fmt.Sprintf("central send → node %d", k))
		tr.SetThreadName(trackCentralRecv(k), fmt.Sprintf("central recv ← node %d", k))
		tr.SetThreadName(trackNode(k), fmt.Sprintf("node %d", k))
	}
	for i, s := range spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "image": s.img, "self_us": float64(self[i]) / 1e3}
		if s.node >= 0 {
			args["node"], args["tile"] = s.node, s.tile
		}
		if s.payload > 0 {
			args["payload_bytes"] = s.payload
		}
		tr.Span(s.name, "bench", s.track, time.Duration(s.start), time.Duration(s.end-s.start), args)
	}
	return tr.WriteFile(path)
}
