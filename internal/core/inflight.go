package core

import (
	"context"
	"fmt"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/quant"
	"adcnn/internal/sched"
	"adcnn/internal/tensor"
)

// Inflight is one dispatched image whose results are still being
// collected. Wait blocks until every tile arrived, the T_L deadline
// expired (missing tiles are zero-filled), or the submitting context was
// cancelled, then runs the back layers and returns the output. Wait is
// idempotent: repeated calls return the memoized result.
//
// An image moves through one tile lifecycle, each step a method below:
//
//	InferAsync: layout → allocate → dispatch (encodeTile + place per tile)
//	Wait:       settle (settleTile per arrival) → assemble → back → updateStats
//
// FDSP and halo execution differ only in layout (halo extends each
// tile's source region) and assemble (halo crops instead of
// zero-filling); everything between — sessions, failover, pipelining,
// the breakdown, tracing — is shared.
type Inflight struct {
	c        *Central
	parent   context.Context
	cctx     context.Context // parent + T_L deadline
	cancelTL context.CancelFunc
	img      uint32
	tiles    []fdsp.Tile // the grid's regions of the input, in index order
	// src holds the region actually sent for each tile: the tile itself
	// under FDSP (src aliases tiles), its halo extension in halo mode.
	src        []fdsp.Tile
	col        *imageCollector
	dispatchAt []time.Time // per tile, for round-trip accounting
	start      time.Time
	release    func() // pipeline admission slot, may be nil

	// What settle has gathered so far; the rest of the tally (results
	// per node, result bytes, the breakdown) accumulates in stats.
	outTiles []*tensor.Tensor // per tile, nil until its result arrives
	taskWire int64            // task payload bytes of the settled tiles
	got      int

	// stats fills in as the image moves through the lifecycle: Alloc at
	// dispatch (tiles actually enqueued per node), the tallies per settled
	// tile, the rest when Wait finishes.
	stats    InferStats
	finished bool
	out      *tensor.Tensor
	err      error
}

// InferAsync partitions x, dispatches its tiles to the node sessions and
// returns without waiting for results — image i+1's tiles can be on the
// wire while image i's results are still arriving (paper Figure 9).
// Call Wait on the handle to collect the output; every InferAsync must
// be paired with exactly one Wait.
func (c *Central) InferAsync(ctx context.Context, x *tensor.Tensor) (*Inflight, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: central is shut down: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	img := c.imageID.Add(1)
	h := &Inflight{c: c, parent: ctx, img: img, start: time.Now()}
	h.stats.TraceID = c.traceBase | uint64(img)
	if err := h.layout(x); err != nil {
		return nil, err
	}
	// The membership view is snapshotted once per image: a node joining
	// mid-dispatch receives tiles from the next image onward.
	sessions := c.snapshot()
	assignment, err := h.allocate(sessions)
	if err != nil {
		return nil, err
	}
	// Register the collector before the first task leaves, so a result
	// can never beat its pending-table entry.
	h.col = newImageCollector(img, len(h.tiles))
	c.pending.register(h.col, len(h.tiles))
	if err := h.dispatch(ctx, x, sessions, assignment); err != nil {
		c.pending.dropImage(img, len(h.tiles))
		return nil, err
	}
	// The image exists from here on: it is counted, and Wait owes the
	// matching decrement.
	c.inflight.Add(1)
	if met := c.metrics; met != nil {
		met.Images.Inc()
		met.InflightImages.Add(1)
	}
	// The T_L clock starts when the last tile is handed off, matching the
	// paper's "after transmitting all the tiles" anchor.
	h.cctx, h.cancelTL = context.WithTimeout(ctx, c.TL)
	return h, nil
}

// layout fixes the image's tile geometry: the grid's regions of x and
// the region sent for each. In halo mode the sent region is the tile
// extended by the halo margin (clamped at the image border), and tiles
// must align to the prefix's downsampling so the crop lands on whole
// result pixels.
func (h *Inflight) layout(x *tensor.Tensor) error {
	ih, iw := x.Shape[2], x.Shape[3]
	h.tiles = h.c.grid.Layout(ih, iw)
	h.src = h.tiles
	halo := h.c.halo
	if halo == nil {
		return nil
	}
	h.src = make([]fdsp.Tile, len(h.tiles))
	for ti, tl := range h.tiles {
		if d := halo.down; tl.Y0%d != 0 || tl.X0%d != 0 || tl.H%d != 0 || tl.W%d != 0 {
			return fmt.Errorf("core: tile %d not aligned to downsample %d", ti, d)
		}
		h.src[ti] = fdsp.HaloExtension(tl, halo.margin, ih, iw)
	}
	return nil
}

// allocate is the input-partition block: the driver plans the split
// (Algorithm 3 on the current stats, skipping nodes whose sessions are
// down — see sched.Driver.Plan) from this image's view of the
// membership and its links. Returns tile → node.
func (h *Inflight) allocate(sessions []*nodeSession) ([]int, error) {
	c := h.c
	nodes := make([]sched.NodeView, len(sessions))
	for k, s := range sessions {
		nodes[k].Alive = s.Alive()
		nodes[k].UpBps, nodes[k].DownBps = s.link.rates()
	}
	plan, err := c.driver.Plan(h.start, h.img, len(h.tiles), nodes, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("core: allocation: %w", err)
	}
	// A node revived on probation is measured afresh: its link estimate
	// predates the starvation (the plan already ignored it).
	for _, k := range plan.Revived {
		sessions[k].link.reset()
		if c.metrics != nil {
			c.metrics.Revives.With(nodeLabel(k)).Inc()
		}
		c.flight.Record("probation-revive", 0, 0, k,
			"starved speed estimate: re-admitting node at cold-start weight")
	}
	assignment := make([]int, 0, len(h.tiles))
	for k, n := range plan.Alloc {
		for j := 0; j < n; j++ {
			assignment = append(assignment, k)
		}
	}
	return assignment, nil
}

// dispatch encodes every tile and places it on a session, starting from
// its assigned node. The first tile nobody accepts fails the image (the
// tiles already placed come back as stale results).
func (h *Inflight) dispatch(ctx context.Context, x *tensor.Tensor, sessions []*nodeSession, assignment []int) error {
	c := h.c
	met, tr := c.metrics, c.trace
	span := tr.Begin("dispatch", "central", 0)
	if met != nil || tr != nil {
		h.dispatchAt = make([]time.Time, len(h.tiles))
	}
	// In the int8 operating mode the uplink carries quantized tiles: uint8
	// levels plus a per-tile affine, 4× smaller than float32 and consumed
	// directly by the workers' int8 entry convolution. Gated on the model
	// actually supporting the levels entry.
	quantUplink := c.Model.Opt.Int8 && c.Model.Int8InputOK()
	h.stats.Alloc = make(sched.Allocation, len(sessions))
	for ti := range h.tiles {
		task := h.encodeTile(x, ti, quantUplink)
		k, ok := h.place(ctx, task, sessions, assignment[ti])
		if !ok {
			task.ReleasePayload()
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("core: no alive conv node for tile %d", ti)
		}
		h.stats.Alloc[k]++
		c.flight.Record("enqueue", h.img, ti, k, "")
		if h.dispatchAt != nil {
			h.dispatchAt[ti] = time.Now()
		}
		if met != nil {
			met.TilesDispatched.With(nodeLabel(k)).Inc()
		}
	}
	span.End(map[string]any{"image": h.img, "tiles": len(h.tiles), "trace_id": TraceIDString(h.stats.TraceID)})
	return nil
}

// encodeTile serialises tile ti's source region into a pooled wire
// buffer; the session's send loop releases it once the frame is safely
// on the wire (a failed send keeps it intact for redispatch). The tile
// tensor itself is dead after serialisation. A quantized-uplink tile
// whose value range defies a finite affine (NaN/Inf input) falls back
// to float32.
func (h *Inflight) encodeTile(x *tensor.Tensor, ti int, quantUplink bool) *Message {
	tile := fdsp.ExtractTile(x, h.src[ti])
	var payload []byte
	sentQuant := false
	if quantUplink {
		mn, mx := tensor.MinMax(tile.Data)
		if af, aerr := quant.AffineFor(mn, mx); aerr == nil {
			payload = AppendQuantTensor(tensor.GetBytes(QuantTensorWireSize(tile))[:0], tile, af)
			sentQuant = true
		}
	}
	if !sentQuant {
		payload = AppendTensor(tensor.GetBytes(TensorWireSize(tile))[:0], tile)
	}
	tensor.PutTensor(tile)
	return &Message{
		Kind: KindTask, ImageID: h.img, TileID: uint32(ti),
		TraceID: h.stats.TraceID, SpanID: tileSpanID(h.img, ti),
		Quantized: sentQuant, Payload: payload,
	}
}

// place enqueues task on node k's session, falling over to the next
// alive node when the session is down — the runtime half of the paper's
// failure tolerance; a task stranded deeper in a dying session's queue
// comes back through redispatch. Reports the node that took it.
func (h *Inflight) place(ctx context.Context, task *Message, sessions []*nodeSession, k int) (int, bool) {
	key := pendingKey{task.ImageID, task.TileID}
	for attempt := 0; attempt < len(sessions); attempt++ {
		h.c.pending.markEnqueued(key, k, monoNow(), len(task.Payload))
		if sessions[k].enqueue(ctx, task) {
			return k, true
		}
		k = (k + 1) % len(sessions)
	}
	return -1, false
}

// tileSpanID derives the parent span ID a tile frame carries: unique
// per (image, tile) so Conv-side work can be parented to the dispatch.
func tileSpanID(img uint32, tile int) uint64 {
	return uint64(img)<<24 | uint64(tile)&0xffffff
}

// TraceIDString renders a trace ID the way it appears in span args.
func TraceIDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// Wait collects the image's intermediate results, zero-fills whatever
// missed the deadline (FDSP; in halo mode a miss is an error), and runs
// the layer-computation block.
func (h *Inflight) Wait() (*tensor.Tensor, InferStats, error) {
	if !h.finished {
		h.finished = true
		h.out, h.err = h.collect()
	}
	return h.out, h.stats, h.err
}

func (h *Inflight) collect() (*tensor.Tensor, error) {
	c := h.c
	err := h.settle()
	// The image is settled one way or the other: late results are stale
	// from here on, and the admission slot and load count are returned.
	c.pending.dropImage(h.img, len(h.tiles))
	h.cancelTL()
	c.inflight.Add(-1)
	if c.metrics != nil {
		c.metrics.InflightImages.Add(-1)
	}
	if h.release != nil {
		h.release()
	}
	var merged *tensor.Tensor
	if err == nil {
		if merged, err = h.assemble(); err != nil {
			h.updateStats(0) // a failed image is no latency reference
		}
	}
	if err != nil {
		h.stats.Latency = time.Since(h.start)
		return nil, err
	}
	out := h.back(merged)

	latency := time.Since(h.start)
	h.stats.Latency = latency
	h.updateStats(latency)
	if c.metrics != nil {
		c.metrics.ImageLatency.ObserveDuration(latency.Nanoseconds())
	}
	c.trace.Span(fmt.Sprintf("image %d", h.img), "image", 0, c.trace.Offset(h.start), latency,
		map[string]any{"missed": h.stats.TilesMissed, "wire_bytes": h.stats.WireBytes, "trace_id": TraceIDString(h.stats.TraceID)})
	if len(h.stats.Breakdown.Tiles) == 0 {
		h.stats.Breakdown = nil
	}
	return out, nil
}

// settle gathers arrivals until every tile is in or T_L expires. It
// fails when a tile could not be placed on any node, the caller
// cancelled, or the Central shut down — in which case nobody will ever
// deliver the outstanding tiles, so waiting out T_L would only return a
// zero-filled answer late.
func (h *Inflight) settle() error {
	h.outTiles = make([]*tensor.Tensor, len(h.tiles))
	h.stats.Received = make([]int, len(h.stats.Alloc)) // membership size at dispatch
	h.stats.Breakdown = &Breakdown{Image: h.img, TraceID: h.stats.TraceID}
	for h.got < len(h.tiles) {
		select {
		case a := <-h.col.ch:
			h.settleTile(a)
		case <-h.col.fail:
			return h.col.err
		case <-h.c.ctx.Done():
			return fmt.Errorf("core: central is shut down: %w", h.c.ctx.Err())
		case <-h.cctx.Done():
			// T_L expired or the caller cancelled.
			return h.parent.Err()
		}
	}
	return h.parent.Err()
}

// settleTile books one arrived result: the tile's output, the per-node
// tally Algorithm 2 reads, the phase breakdown, and the health and
// link-rate observations derived from it.
func (h *Inflight) settleTile(a arrival) {
	c := h.c
	met, tr := c.metrics, c.trace
	collectNs := monoNow()
	h.outTiles[a.tile] = a.t
	// A redispatch can route a tile to a node that joined after
	// this image was dispatched; grow the tally to fit.
	for a.node >= len(h.stats.Received) {
		h.stats.Received = append(h.stats.Received, 0)
	}
	h.stats.Received[a.node]++
	h.stats.WireBytes += int64(a.wire)
	h.taskWire += int64(a.taskWire)
	h.got++
	if a.enqNs > 0 {
		tb := newTileBreakdown(a.tile, a.node, a.enqNs, a.sentNs, a.recvNs, collectNs, a.timing, a.offsetNs)
		h.stats.Breakdown.Tiles = append(h.stats.Breakdown.Tiles, tb)
		if met != nil {
			for p := 0; p < NumPhases; p++ {
				met.TilePhase[p].ObserveDuration(int64(tb.Phase[p]))
			}
		}
		c.health.Observe(a.node, &tb)
		// Feed the link profiler: uplink bytes over the uplink
		// phase, downlink bytes over the downlink phase.
		if s := c.session(a.node); s != nil {
			s.link.observe(int64(a.taskWire), int64(a.wire),
				int64(tb.Phase[PhaseUplink]), int64(tb.Phase[PhaseDownlink]))
		}
		h.tracePhases(&tb, a.sentNs)
	}
	if h.dispatchAt != nil {
		rt := time.Since(h.dispatchAt[a.tile])
		if met != nil {
			met.TilesReceived.With(nodeLabel(a.node)).Inc()
			met.TileRoundTrip.ObserveDuration(rt.Nanoseconds())
			met.TileLatencyWindow.ObserveDuration(rt.Nanoseconds())
			met.TilesOKWindow.Inc()
		}
		tr.Span(fmt.Sprintf("tile %d", a.tile), "tile", a.node+1,
			tr.Offset(h.dispatchAt[a.tile]), rt,
			map[string]any{"image": h.img, "tile": a.tile, "wire_bytes": a.wire,
				"trace_id": TraceIDString(h.stats.TraceID)})
	}
}

// updateStats is the statistics-collection block: the image's per-node
// tally goes to Algorithm 2, and its average payload bytes per tile in
// each direction and its latency calibrate the transfer cost the
// link-aware allocator reads (see sched.Driver.Settle).
func (h *Inflight) updateStats(latency time.Duration) {
	var up, down float64
	if h.got > 0 {
		up, down = float64(h.taskWire)/float64(h.got), float64(h.stats.WireBytes)/float64(h.got)
	}
	h.c.driver.Settle(h.stats.Received, up, down, latency)
}

// assemble turns the settled tiles into the back layers' input. Under
// FDSP a missing tile is zero-filled (paper: "start executing the later
// layers by setting the missing input to zero"); in halo mode each
// result is cropped to its tile's exact region and a missing tile is an
// error, because an exact answer cannot be built around a hole. Either
// way the boundary already ran on the Conv nodes, so the merged tensor
// feeds Back directly.
func (h *Inflight) assemble() (*tensor.Tensor, error) {
	c := h.c
	missed := len(h.tiles) - h.got
	h.stats.TilesMissed = missed
	if missed > 0 {
		for i, t := range h.outTiles {
			if t == nil {
				c.flight.Record("deadline-miss", h.img, i, -1,
					fmt.Sprintf("tile %d of image %d missed T_L=%v", i, h.img, c.TL))
			}
		}
		if c.metrics != nil {
			c.metrics.TilesMissed.Add(float64(missed))
			c.metrics.TilesMissWindow.Add(float64(missed))
		}
		c.flight.Dump("deadline-miss", h.img)
	}
	switch {
	case c.halo != nil && missed > 0:
		for _, t := range h.outTiles {
			tensor.PutTensor(t)
		}
		return nil, fmt.Errorf("core: halo mode cannot zero-fill (exactness contract); %d tiles missing", missed)
	case c.halo != nil:
		d := c.halo.down
		for i, tl := range h.tiles {
			ext := h.outTiles[i]
			h.outTiles[i] = fdsp.Crop(ext, (tl.Y0-h.src[i].Y0)/d, (tl.X0-h.src[i].X0)/d, tl.H/d, tl.W/d)
			tensor.PutTensor(ext)
		}
	case missed > 0:
		full := c.Model.FrontOutputShape()
		shape := []int{1, full[0], full[1] / c.grid.Rows, full[2] / c.grid.Cols}
		for i, t := range h.outTiles {
			if t == nil {
				z := tensor.GetTensor(shape...)
				clear(z.Data)
				h.outTiles[i] = z
			}
		}
		c.trace.Instant("zero-fill", "central", 0, c.trace.Offset(time.Now()),
			map[string]any{"image": h.img, "missed": missed, "trace_id": TraceIDString(h.stats.TraceID)})
	}
	merged := fdsp.Reassemble(h.outTiles, c.grid)
	// Reassemble copies every tile into the merged tensor, so the
	// pool-backed per-tile buffers (decoded results and zero fills alike)
	// can go home immediately.
	for _, t := range h.outTiles {
		tensor.PutTensor(t)
	}
	h.outTiles = nil
	return merged, nil
}

// back is the layer-computation block. The Central's compute stage is
// one resource: concurrent in-flight images run it in turn, which is
// exactly the pipeline's third stage.
func (h *Inflight) back(merged *tensor.Tensor) *tensor.Tensor {
	c := h.c
	c.backMu.Lock()
	defer c.backMu.Unlock()
	span := c.trace.Begin("back", "central", 0)
	out := c.Model.Back.Forward(merged, false)
	span.End(map[string]any{"image": h.img, "trace_id": TraceIDString(h.stats.TraceID)})
	return out
}

// tracePhases merges the Conv node's side of a tile's journey into the
// trace as contiguous child spans on that node's track, mapped onto the
// Central's clock: uplink → queue → compute → downlink tile the
// interval between the frame leaving the Central and the result coming
// back, so both sides of the wire render under one trace ID.
func (h *Inflight) tracePhases(tb *TileBreakdown, sentNs int64) {
	tr := h.c.trace
	if tr == nil || tb.Conv == nil {
		return
	}
	args := map[string]any{
		"image": h.img, "tile": tb.Tile, "trace_id": TraceIDString(h.stats.TraceID),
		"span_id":         fmt.Sprintf("%016x", tileSpanID(h.img, tb.Tile)),
		"clock_offset_ns": tb.OffsetNs,
	}
	tid := tb.Node + 1
	at := sentNs
	for _, ph := range [...]struct {
		name  string
		phase int
	}{
		{"uplink", PhaseUplink},
		{"queue", PhaseNodeQueue},
		{"compute", PhaseCompute},
		{"downlink", PhaseDownlink},
	} {
		dur := tb.Phase[ph.phase]
		tr.Span(ph.name, "conv", tid, tr.Offset(monoWall(at)), dur, args)
		at += int64(dur)
	}
}
