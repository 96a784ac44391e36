package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"adcnn/internal/compress"
	"adcnn/internal/core"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/nn"
	"adcnn/internal/quant"
	"adcnn/internal/sched"
	"adcnn/internal/tensor"
)

// The layer replay times each module's public functions on the exact
// tile and tensor shapes the workload sends through them, in the
// workload's mode, while the cluster is idle. Every figure is the median
// of at least replayReps calls, as the live latency it is held against
// is the median over the window's images.
const (
	replayReps    = 30
	replayMinTime = 20 * time.Millisecond
	replayMaxReps = 5000
)

// moreReps reports whether a replay loop that has done n calls since
// begin owes more: at least replayReps, and cheap calls until
// replayMinTime has passed or replayMaxReps is reached.
func moreReps(n int, begin time.Time) bool {
	return n < replayReps || (time.Since(begin) < replayMinTime && n < replayMaxReps)
}

// timeIt returns fn's median duration in nanoseconds.
func timeIt(fn func()) float64 {
	var ds []float64
	for begin := time.Now(); moreReps(len(ds), begin); {
		t := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t)))
	}
	return median(ds)
}

// maxFrontBlocks and maxBackBlocks fix the per-block metric names; a
// model with fewer blocks reports 0 for the rest.
const (
	maxFrontBlocks = 7
	maxBackBlocks  = 6
)

// replayState carries the tensors one stage of the replay hands to the
// next: the image's tiles, what the nodes would send back, and what the
// Central's back layers would consume.
type replayState struct {
	c      *cluster
	tiles  []*tensor.Tensor  // input tiles of image 0
	qtiles []*core.QuantTile // int8: the same tiles as wire levels
	outs   []*tensor.Tensor  // front outputs after the boundary clip
	recv   []*tensor.Tensor  // outs as the Central decodes them
	pay    [][]byte          // result payloads in the workload's mode
}

// frontOnce runs one tile through a node model's front the way the
// worker does: levels entry in int8 mode, Front.Forward otherwise.
func (s *replayState) frontOnce(m *models.Model, i int) (*tensor.Tensor, error) {
	if s.c.w.Int8 {
		q := s.qtiles[i]
		y, ok := m.ForwardFrontLevels(q.Levels, q.Shape[1], q.Shape[2], q.Shape[3], q.Affine)
		if !ok {
			return nil, fmt.Errorf("model %s cannot take quantized input tiles", m.Cfg.Name)
		}
		return y, nil
	}
	return m.Front.Forward(s.tiles[i], false), nil
}

// frontBlocks runs the same tile block by block, timing each
// Front.Layers[i].Forward. In int8 mode block 0 opens with the levels
// entry, as ForwardFrontLevels does.
func (s *replayState) frontBlocks(m *models.Model, i int, ns []float64) {
	var cur *tensor.Tensor
	for b, l := range m.Front.Layers {
		t := time.Now()
		if b == 0 && s.c.w.Int8 {
			q := s.qtiles[i]
			block := l.(*nn.Sequential)
			conv := block.Layers[0].(*nn.Conv2D)
			oh, ow := conv.Geom.OutSize(q.Shape[2], q.Shape[3])
			cur = tensor.New(1, conv.OutC, oh, ow)
			conv.ForwardLevelsInto(cur, q.Levels, q.Shape[2], q.Shape[3], q.Affine)
			for _, rest := range block.Layers[1:] {
				cur = rest.Forward(cur, false)
			}
		} else {
			if b == 0 {
				cur = s.tiles[i]
			}
			cur = l.Forward(cur, false)
		}
		ns[b] = float64(time.Since(t))
	}
}

// replayFront times the front per tile and per block on every node
// model at once, one goroutine per node: the live nodes share the
// host's cores (nodes = nproc), and the GEMM engine fans a large
// product out over GOMAXPROCS, so a single caller would see both cores
// and report a tile time no live node gets.
//
// sumNs is the median over reps of one block-by-block pass's total, the
// figure to hold against wholeNs: a sum of per-block medians would drop
// each block's slow reps and come out short.
func (s *replayState) replayFront() (wholeNs, sumNs float64, blockNs []float64, err error) {
	nb := len(s.c.model.Front.Layers)
	type result struct {
		whole, sums []float64
		blocks      [][]float64
		err         error
	}
	results := make([]result, len(s.c.nodes))
	var wg sync.WaitGroup
	for k, m := range s.c.nodes {
		wg.Add(1)
		go func(k int, m *models.Model) {
			defer wg.Done()
			r := &results[k]
			r.blocks = make([][]float64, nb)
			ns := make([]float64, nb)
			for rep, begin := 0, time.Now(); moreReps(rep, begin); rep++ {
				// The second pass over a tile finds it (and the allocator)
				// warm, so the two passes take turns going first.
				i := rep % len(s.tiles)
				if rep%2 == 1 {
					s.frontBlocks(m, i, ns)
				}
				t := time.Now()
				if _, r.err = s.frontOnce(m, i); r.err != nil {
					return
				}
				r.whole = append(r.whole, float64(time.Since(t)))
				if rep%2 == 0 {
					s.frontBlocks(m, i, ns)
				}
				var sum float64
				for b := range ns {
					r.blocks[b] = append(r.blocks[b], ns[b])
					sum += ns[b]
				}
				r.sums = append(r.sums, sum)
			}
		}(k, m)
	}
	wg.Wait()
	var whole, sums []float64
	blocks := make([][]float64, nb)
	for _, r := range results {
		if r.err != nil {
			return 0, 0, nil, r.err
		}
		whole = append(whole, r.whole...)
		sums = append(sums, r.sums...)
		for b := range blocks {
			blocks[b] = append(blocks[b], r.blocks[b]...)
		}
	}
	blockNs = make([]float64, nb)
	for b := range blocks {
		blockNs[b] = median(blocks[b])
	}
	return median(whole), median(sums), blockNs, nil
}

// prepare builds the replay's tensors from image 0.
func (s *replayState) prepare(x *tensor.Tensor) error {
	w := s.c.w
	node := s.c.nodes[0]
	for _, tl := range w.Grid.Layout(x.Shape[2], x.Shape[3]) {
		s.tiles = append(s.tiles, fdsp.ExtractTile(x, tl))
	}
	if w.Int8 {
		for _, t := range s.tiles {
			pay, err := w.encodeTask(nil, t)
			if err != nil {
				return err
			}
			q := new(core.QuantTile)
			if err := core.DecodeQuantTensorInto(q, pay); err != nil {
				return err
			}
			s.qtiles = append(s.qtiles, q)
		}
	}
	for i := range s.tiles {
		y, err := s.frontOnce(node, i)
		if err != nil {
			return err
		}
		if w.options().Clipped() {
			y = node.Boundary.Layers[0].Forward(y, false)
		}
		pay, err := w.encodeResult(nil, y)
		if err != nil {
			return err
		}
		got := new(tensor.Tensor)
		if err := w.decodeResult(got, pay); err != nil {
			return err
		}
		s.outs = append(s.outs, y)
		s.pay = append(s.pay, pay)
		s.recv = append(s.recv, got)
	}
	return nil
}

// encodeTask appends a tile's task payload the way the Central builds
// it: quantized levels in int8 mode, float32 otherwise.
func (w workload) encodeTask(buf []byte, tile *tensor.Tensor) ([]byte, error) {
	if !w.Int8 {
		return core.AppendTensor(buf, tile), nil
	}
	af, err := tileAffine(tile)
	if err != nil {
		return nil, err
	}
	return core.AppendQuantTensor(buf, tile, af), nil
}

// encodeResult appends a front output's result payload by the worker's
// encoding preference: boundary codec, then levels, then float32.
func (w workload) encodeResult(buf []byte, y *tensor.Tensor) ([]byte, error) {
	switch {
	case w.codec():
		return w.codecPipeline().EncodeInto(buf, y)
	case w.Int8:
		af, err := tileAffine(y)
		if err != nil {
			return nil, err
		}
		return core.AppendQuantTensor(buf, y, af), nil
	}
	return core.AppendTensor(buf, y), nil
}

// decodeResult decodes a result payload as the Central's recv loop does.
func (w workload) decodeResult(dst *tensor.Tensor, pay []byte) error {
	switch {
	case w.codec():
		return compress.DecodeInto(dst, pay)
	case w.Int8:
		return core.DequantizeQuantTensorInto(dst, pay)
	}
	return core.DecodeTensorInto(dst, pay)
}

func tileAffine(t *tensor.Tensor) (quant.Affine, error) {
	mn, mx := tensor.MinMax(t.Data)
	return quant.AffineFor(mn, mx)
}

// replayLayers produces every per-layer metric that does not need the
// live traced window. Call only while the cluster is idle.
func replayLayers(c *cluster, inputs []*tensor.Tensor) (map[string]float64, error) {
	w := c.w
	cfg := w.Model()
	tiles := w.Grid.Tiles()
	s := &replayState{c: c}
	if err := s.prepare(inputs[0]); err != nil {
		return nil, err
	}
	out := map[string]float64{}

	// models / nn: the front on the nodes, the back on the Central.
	frontNs, blockSum, blockNs, err := s.replayFront()
	if err != nil {
		return nil, err
	}
	out["models.front_ms_per_tile"] = frontNs / 1e6
	for b, ns := range blockNs {
		if b >= maxFrontBlocks {
			return nil, fmt.Errorf("front has %d blocks, the metric table names %d", len(blockNs), maxFrontBlocks)
		}
		out[fmt.Sprintf("nn.front.b%d_ms", b)] = ns / 1e6
	}
	out["nn.front_blocks_vs_front_pct"] = 100 * (blockSum - frontNs) / frontNs
	out["models.front_flops_per_tile"] = float64(cfg.FrontFLOPs()) / float64(tiles)

	merged := fdsp.Reassemble(s.recv, w.Grid)
	out["models.back_ms_per_image"] = timeIt(func() { c.model.Back.Forward(merged, false) }) / 1e6
	if len(c.model.Back.Layers) > maxBackBlocks {
		return nil, fmt.Errorf("back has %d layers, the metric table names %d", len(c.model.Back.Layers), maxBackBlocks)
	}
	cur := merged
	for b, l := range c.model.Back.Layers {
		in := cur
		out[fmt.Sprintf("nn.back.b%d_ms", b)] = timeIt(func() { cur = l.Forward(in, false) }) / 1e6
	}

	// fdsp: the Central's split and reassemble, per image.
	x := inputs[0]
	layout := w.Grid.Layout(x.Shape[2], x.Shape[3])
	out["fdsp.split_us_per_image"] = timeIt(func() {
		for _, tl := range layout {
			fdsp.ExtractTile(x, tl)
		}
	}) / 1e3
	out["fdsp.reassemble_us_per_image"] = timeIt(func() { fdsp.Reassemble(s.recv, w.Grid) }) / 1e3

	// quant: the int8 mode's uplink quantize and downlink dequantize.
	buf := make([]byte, 0, core.TensorWireSize(s.tiles[0])+core.TensorWireSize(s.outs[0]))
	scratch := new(tensor.Tensor)
	if w.Int8 {
		out["quant.tile_quantize_us"] = timeIt(func() { _, _ = w.encodeTask(buf[:0], s.tiles[0]) }) / 1e3
		out["quant.dequantize_us"] = timeIt(func() { _ = w.decodeResult(scratch, s.pay[0]) }) / 1e3
	}

	// compress: the boundary codec on the downlink.
	if w.codec() {
		out["compress.encode_us_per_tile"] = timeIt(func() { _, _ = w.encodeResult(buf[:0], s.outs[0]) }) / 1e3
		out["compress.decode_us_per_tile"] = timeIt(func() { _ = w.decodeResult(scratch, s.pay[0]) }) / 1e3
		var enc, raw, sparse float64
		for i, y := range s.outs {
			enc += float64(len(s.pay[i]))
			raw += float64(compress.RawSize(y))
			sparse += y.Sparsity()
		}
		out["compress.ratio"] = enc / raw
		out["compress.sparsity"] = sparse / float64(len(s.outs))
	}

	s.replayWire(out, buf)

	speeds := make([]float64, convNodes)
	for k := range speeds {
		speeds[k] = float64(tiles) / convNodes
	}
	out["sched.allocate_us"] = timeIt(func() { _, _ = sched.Allocate(tiles, speeds, 0, nil, nil) }) / 1e3

	replayKernels(out, w, s.tiles[0])
	return out, nil
}

// replayWire times framing one task and one result in the workload's
// mode against a bytes.Buffer: payload encode + WriteMessage one way,
// ReadMessageInto + payload decode the other.
func (s *replayState) replayWire(out map[string]float64, buf []byte) {
	w := s.c.w
	var frame bytes.Buffer
	tile, y := s.tiles[0], s.outs[0]

	task := &core.Message{Kind: core.KindTask, ImageID: 1, TraceID: 1, SpanID: 1, Quantized: w.Int8}
	out["core.wire.encode_task_us"] = timeIt(func() {
		task.Payload, _ = w.encodeTask(buf[:0], tile)
		frame.Reset()
		_ = core.WriteMessage(&frame, task)
	}) / 1e3
	taskFrame := append([]byte(nil), frame.Bytes()...)
	got := new(core.Message)
	qt := new(core.QuantTile)
	dst := new(tensor.Tensor)
	rd := bytes.NewReader(nil)
	out["core.wire.decode_task_us"] = timeIt(func() {
		rd.Reset(taskFrame)
		_ = core.ReadMessageInto(rd, got)
		if got.Quantized {
			_ = core.DecodeQuantTensorInto(qt, got.Payload)
		} else {
			_ = core.DecodeTensorInto(dst, got.Payload)
		}
	}) / 1e3

	res := &core.Message{Kind: core.KindResult, ImageID: 1, TraceID: 1, SpanID: 1,
		Compressed: w.codec(), Quantized: w.Int8 && !w.codec(), Timing: new(core.ConvTiming)}
	out["core.wire.encode_result_us"] = timeIt(func() {
		res.Payload, _ = w.encodeResult(buf[:0], y)
		frame.Reset()
		_ = core.WriteMessage(&frame, res)
	}) / 1e3
	resFrame := append([]byte(nil), frame.Bytes()...)
	out["core.wire.decode_result_us"] = timeIt(func() {
		rd.Reset(resFrame)
		_ = core.ReadMessageInto(rd, got)
		_ = w.decodeResult(dst, got.Payload)
	}) / 1e3
}

// convShape is one convolution of the front at tile size.
type convShape struct {
	inC, outC, h, w int
	geom            tensor.ConvGeom
}

func (s convShape) gemmDims() (m, k, n int) {
	oh, ow := s.geom.OutSize(s.h, s.w)
	return s.outC, s.inC * s.geom.KH * s.geom.KW, oh * ow
}

// heaviestFrontConv walks the separable blocks at tile size and returns
// the convolution with the most multiply-adds.
func heaviestFrontConv(cfg models.Config, th, tw int) convShape {
	var convs []convShape
	inC, h, w := cfg.InputC, th, tw
	for _, b := range cfg.Blocks[:cfg.Separable] {
		kw := b.KernelW
		if kw == 0 {
			kw = b.Kernel
		}
		g := tensor.ConvGeom{KH: b.Kernel, KW: kw, StrideH: b.Stride, StrideW: b.Stride, PadH: (b.Kernel - 1) / 2, PadW: (kw - 1) / 2}
		convs = append(convs, convShape{inC, b.OutC, h, w, g})
		oh, ow := g.OutSize(h, w)
		if b.Residual {
			g2 := g
			g2.StrideH, g2.StrideW = 1, 1
			convs = append(convs, convShape{b.OutC, b.OutC, oh, ow, g2})
		}
		dh, dw := b.Downsample()
		inC, h, w = b.OutC, h/dh, w/dw
	}
	best := convs[0]
	for _, c := range convs[1:] {
		m, k, n := c.gemmDims()
		bm, bk, bn := best.gemmDims()
		if m*k*n > bm*bk*bn {
			best = c
		}
	}
	return best
}

// replayKernels times the tensor kernels on the front's heaviest
// convolution at tile size, in the workload's mode. Rates are computed
// from the shapes, not measured by a counter: 2·m·k·n operations for
// the GEMM; for im2col the image read plus the column matrix written.
func replayKernels(out map[string]float64, w workload, tile *tensor.Tensor) {
	cs := heaviestFrontConv(w.Model(), tile.Shape[2], tile.Shape[3])
	m, k, n := cs.gemmDims()
	rng := rand.New(rand.NewSource(1))
	img := tensor.New(cs.inC, cs.h, cs.w)
	img.RandN(rng, 1)
	ops := 2 * float64(m) * float64(k) * float64(n)
	out["tensor.kernel_tier"] = float64(tensor.CurrentKernelTier())
	if !w.Int8 {
		a := tensor.New(m, k)
		a.RandN(rng, 1)
		cols := make([]float32, k*n)
		c := make([]float32, m*n)
		ns := timeIt(func() { tensor.Im2ColSlice(cols, img.Data, cs.inC, cs.h, cs.w, cs.geom) })
		out["tensor.im2col_gbps"] = 4 * float64(img.Len()+k*n) / ns
		out["tensor.gemm_gflops"] = ops / timeIt(func() { tensor.GemmInto(c, a.Data, cols, m, k, n) })
		return
	}
	kp := tensor.Int8KP(k)
	a := make([]int8, m*kp)
	for i := range a {
		a[i] = int8(rng.Intn(255) - 127)
	}
	levels := make([]uint8, img.Len())
	af, _ := tileAffine(img)
	ns := timeIt(func() { tensor.QuantizeAffineSlice(levels, img.Data, af.InvScale(), af.Zero) })
	out["tensor.quantize_gbps"] = 5 * float64(img.Len()) / ns
	cols := make([]uint8, n*kp)
	ns = timeIt(func() { tensor.Im2ColU8Slice(cols, levels, cs.inC, cs.h, cs.w, cs.geom, af.Zero, kp) })
	out["tensor.im2col_gbps"] = float64(img.Len()+n*kp) / ns
	c := make([]int32, m*n)
	out["tensor.gemm_gflops"] = ops / timeIt(func() { tensor.GemmInt8DotInto(c, a, cols, m, n, kp) })
}
