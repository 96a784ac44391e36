package core

import (
	"context"
	"fmt"
	"time"

	"adcnn/internal/fdsp"
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
type Inflight struct {
	c          *Central
	parent     context.Context
	cctx       context.Context // parent + T_L deadline
	cancelTL   context.CancelFunc
	img        uint32
	tiles      []fdsp.Tile // the grid's regions of the input, in index order
	col        *imageCollector
	dispatchAt []time.Time // per tile, for round-trip accounting
	start      time.Time
	release    func() // pipeline admission slot, may be nil

	// What settle has gathered so far; the rest of the tally (results
	// per node, result bytes, the breakdown) accumulates in stats.
	outTiles []*tensor.Tensor // per tile, nil until its result arrives
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
	h.tiles = c.grid.Layout(x.Shape[2], x.Shape[3])
	assignment, err := h.allocate()
	if err != nil {
		return nil, err
	}
	// Register the collector before the first task leaves, so a result
	// can never beat its pending-table entry.
	h.col = newImageCollector(img, len(h.tiles))
	c.pending.register(h.col, len(h.tiles))
	if err := h.dispatch(ctx, x, assignment); err != nil {
		c.pending.dropImage(img, len(h.tiles))
		return nil, err
	}
	// The image exists from here on: it is counted, and Wait owes the
	// matching decrement.
	if met := c.metrics; met != nil {
		met.Images.Inc()
		met.InflightImages.Add(1)
	}
	// The T_L clock starts when the last tile is handed off, matching the
	// paper's "after transmitting all the tiles" anchor.
	h.cctx, h.cancelTL = context.WithTimeout(ctx, c.TL)
	return h, nil
}

// allocate is the input-partition block: the driver plans the split
// (Algorithm 3 on the current stats, skipping nodes whose sessions are
// down — see sched.Driver.Plan). Returns tile → node.
func (h *Inflight) allocate() ([]int, error) {
	c := h.c
	alive := make([]bool, len(c.sessions))
	for k, s := range c.sessions {
		alive[k] = s.Alive()
	}
	plan, err := c.driver.Plan(h.start, h.img, len(h.tiles), alive, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("core: allocation: %w", err)
	}
	for _, k := range plan.Revived {
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
func (h *Inflight) dispatch(ctx context.Context, x *tensor.Tensor, assignment []int) error {
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
	h.stats.Alloc = make(sched.Allocation, len(c.sessions))
	for ti := range h.tiles {
		task := h.encodeTile(x, ti, quantUplink)
		k, ok := h.place(ctx, task, assignment[ti])
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
	}
	if tr != nil {
		span.End(map[string]any{"image": h.img, "tiles": len(h.tiles), "trace_id": TraceIDString(h.stats.TraceID)})
	}
	return nil
}

// encodeTile serialises tile ti's region of x into a pooled wire
// buffer; the session's send loop releases it once the frame is safely
// on the wire (a failed send keeps it intact for redispatch). The tile
// is staged in a pooled tensor, dead after serialisation.
func (h *Inflight) encodeTile(x *tensor.Tensor, ti int, quantUplink bool) *Message {
	t := h.tiles[ti]
	tile := tensor.GetTensor(1, x.Shape[1], t.H, t.W)
	fdsp.ExtractTileInto(tile, x, t)
	payload, sentQuant := encodeLevelsOrRaw(nil, tile, quantUplink)
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
func (h *Inflight) place(ctx context.Context, task *Message, k int) (int, bool) {
	key := pendingKey{task.ImageID, task.TileID}
	sessions := h.c.sessions
	for attempt := 0; attempt < len(sessions); attempt++ {
		h.c.pending.markEnqueued(key, k, monoNow())
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
// missed the deadline, and runs the layer-computation block.
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
	if c.metrics != nil {
		c.metrics.InflightImages.Add(-1)
	}
	if h.release != nil {
		h.release()
	}
	if err != nil {
		for _, t := range h.outTiles {
			tensor.PutTensor(t)
		}
		h.stats.Latency = time.Since(h.start)
		return nil, err
	}
	out := h.back(h.assemble())

	latency := time.Since(h.start)
	h.stats.Latency = latency
	h.updateStats()
	if tr := c.trace; tr != nil {
		tr.Span(fmt.Sprintf("image %d", h.img), "image", 0, tr.Offset(h.start), latency,
			map[string]any{"missed": h.stats.TilesMissed, "wire_bytes": h.stats.WireBytes, "trace_id": TraceIDString(h.stats.TraceID)})
	}
	if len(h.stats.Breakdown.Tiles) == 0 {
		h.stats.Breakdown = nil
	}
	return out, nil
}

// settle gathers arrivals until every tile is in or T_L expires. It
// fails when a tile could not be placed on any node, the caller
// cancelled, or the Central shut down — in which case nobody will ever
// deliver the outstanding tiles, so waiting out T_L would only return a
// zero-filled answer late. However it returns, it first seals the
// collector and books every result already delivered, so a tile that
// arrived is never zero-filled and a later one is stale.
func (h *Inflight) settle() error {
	h.outTiles = make([]*tensor.Tensor, len(h.tiles))
	h.stats.Received = make([]int, len(h.c.sessions))
	h.stats.Breakdown = &Breakdown{Image: h.img, TraceID: h.stats.TraceID}
	defer func() {
		h.col.seal()
		for len(h.col.ch) > 0 {
			h.settleTile(<-h.col.ch)
		}
	}()
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
// tally Algorithm 2 reads, and the phase breakdown.
func (h *Inflight) settleTile(a arrival) {
	c := h.c
	met, tr := c.metrics, c.trace
	collectNs := monoNow()
	h.outTiles[a.tile] = a.t
	h.stats.Received[a.node]++
	h.stats.WireBytes += int64(a.wire)
	h.got++
	if a.enqNs > 0 {
		tb := newTileBreakdown(a.tile, a.node, a.enqNs, a.sentNs, a.recvNs, collectNs, a.timing, a.offsetNs)
		h.stats.Breakdown.Tiles = append(h.stats.Breakdown.Tiles, tb)
		if met != nil {
			for p := 0; p < NumPhases; p++ {
				met.TilePhase[p].ObserveDuration(int64(tb.Phase[p]))
			}
		}
		h.tracePhases(&tb, a.sentNs)
	}
	if h.dispatchAt != nil {
		rt := time.Since(h.dispatchAt[a.tile])
		if met != nil {
			met.TileRoundTrip.ObserveDuration(rt.Nanoseconds())
		}
		if tr != nil {
			tr.Span(fmt.Sprintf("tile %d", a.tile), "tile", a.node+1,
				tr.Offset(h.dispatchAt[a.tile]), rt,
				map[string]any{"image": h.img, "tile": a.tile, "wire_bytes": a.wire,
					"trace_id": TraceIDString(h.stats.TraceID)})
		}
	}
}

// updateStats is the statistics-collection block: the image's per-node
// tally goes to Algorithm 2 (see sched.Driver.Settle), whose updated
// estimates are published as adcnn_sched_speed. With metrics on, the
// image's critical path is counted and kept for the SLO breach dump.
func (h *Inflight) updateStats() {
	c := h.c
	c.driver.Settle(h.stats.Received)
	if c.metrics != nil {
		for k, s := range c.driver.Speeds() {
			c.metrics.SchedSpeed.With(nodeLabel(k)).Set(s)
		}
		node, phase, excess := h.stats.Breakdown.Critical()
		if phase >= 0 {
			c.metrics.CriticalPath.With(nodeLabel(node), PhaseNames[phase]).Inc()
		}
		c.critMu.Lock()
		c.crit.node, c.crit.phase, c.crit.excess = node, phase, excess
		c.critMu.Unlock()
	}
}

// assemble turns the settled tiles into the back layers' input. A
// missing tile is zero-filled (paper: "start executing the later layers
// by setting the missing input to zero"); the boundary already ran on
// the Conv nodes, so the merged tensor feeds Back directly.
func (h *Inflight) assemble() *tensor.Tensor {
	c := h.c
	missed := len(h.tiles) - h.got
	h.stats.TilesMissed = missed
	if missed > 0 {
		full := c.Model.FrontOutputShape()
		shape := []int{1, full[0], full[1] / c.grid.Rows, full[2] / c.grid.Cols}
		for i, t := range h.outTiles {
			if t == nil {
				c.flight.Record("deadline-miss", h.img, i, -1,
					fmt.Sprintf("tile %d of image %d missed T_L=%v", i, h.img, c.TL))
				z := tensor.GetTensor(shape...)
				clear(z.Data)
				h.outTiles[i] = z
			}
		}
		if c.metrics != nil {
			c.metrics.TilesMissed.Add(float64(missed))
		}
		c.flight.Dump("deadline-miss", h.img)
		if tr := c.trace; tr != nil {
			tr.Instant("zero-fill", "central", 0, tr.Offset(time.Now()),
				map[string]any{"image": h.img, "missed": missed, "trace_id": TraceIDString(h.stats.TraceID)})
		}
	}
	ch, mh, mw := fdsp.MergedSize(h.outTiles, c.grid)
	merged := tensor.GetTensor(1, ch, mh, mw)
	fdsp.ReassembleInto(merged, h.outTiles, c.grid)
	// The merge copies every tile into the merged tensor, so the
	// pool-backed per-tile buffers (decoded results and zero fills alike)
	// can go home immediately.
	for _, t := range h.outTiles {
		tensor.PutTensor(t)
	}
	h.outTiles = nil
	return merged
}

// back is the layer-computation block. The Central's compute stage is
// one resource: concurrent in-flight images run it in turn, which is
// exactly the pipeline's third stage. The merged tensor is pooled and
// goes back once the back layers have read it — unless their answer is
// merged itself or a view of it (an empty or reshape-only Back).
func (h *Inflight) back(merged *tensor.Tensor) *tensor.Tensor {
	c := h.c
	c.backMu.Lock()
	defer c.backMu.Unlock()
	span := c.trace.Begin("back", "central", 0)
	out := c.Model.Back.Forward(merged, false)
	if c.trace != nil {
		span.End(map[string]any{"image": h.img, "trace_id": TraceIDString(h.stats.TraceID)})
	}
	if !out.SharesData(merged) {
		tensor.PutTensor(merged)
	}
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
