// Package core implements the ADCNN runtime (paper Section 6): a Central
// node that partitions inputs with FDSP, allocates tiles to Conv nodes
// with Algorithms 2-3, tolerates stragglers with a deadline, and computes
// the later layers — plus a Conv-node worker. Two execution engines are
// provided:
//
//   - a virtual-time simulator (this file) that reproduces the paper's
//     latency/energy/adaptation experiments on calibrated device models,
//     deterministically and in microseconds of wall time;
//   - a live runtime (runtime.go / inflight.go / session.go / worker.go)
//     that runs the actual networks across goroutines or TCP connections
//     and verifies the distributed protocol end to end.
//
// Both ask the same sched.Driver for every allocation and settle every
// image with it; the simulator passes its virtual clock where the live
// runtime passes wall time.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"adcnn/internal/cluster"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/perfmodel"
	"adcnn/internal/sched"
	"adcnn/internal/telemetry"
)

// SimConfig parameterises a virtual-time ADCNN run.
type SimConfig struct {
	Model models.Config
	Grid  fdsp.Grid

	Nodes   []*cluster.Device   // Conv nodes
	Central *cluster.Device     // runs partition + later layers
	Link    perfmodel.LinkModel // shared medium between Central and Conv nodes

	// Pruning enables the clipped-ReLU + 4-bit + RLE compression of the
	// Conv-node outputs; PruneRatio is the measured compressed/raw ratio
	// (Table 2 magnitudes, e.g. 0.032 for VGG16).
	Pruning    bool
	PruneRatio float64

	// InputBytesPerValue is the wire size of one input element. Raw
	// camera images travel as 1 byte/channel-pixel; set 4 to model
	// float32 transport.
	InputBytesPerValue int

	// StatsWindow is the Algorithm 2 counting window T_L, measured from
	// the moment the Central node finishes transmitting an image's tiles.
	// 0 = auto: 1.25× the expected per-node compute time under an equal
	// split at full speed.
	StatsWindow time.Duration
	// DropDeadline is the hard deadline after which missing tiles are
	// zero-filled so a failed node cannot stall the system. 0 = auto
	// (4× StatsWindow).
	DropDeadline time.Duration

	// Gamma is Algorithm 2's decay (paper: 0.9).
	Gamma float64

	// Pipeline overlaps a node's tile reception with its computation
	// (Figure 9's t_s^{i+1} < t_c^i behaviour within an image).
	Pipeline bool

	// LinkScale optionally scales each node's effective link speed
	// (1 = nominal, 0.5 = half throughput). Real edge networks are
	// heterogeneous in bandwidth as well as CPU; Algorithm 2's
	// count-based statistics absorb both. nil = all nominal.
	LinkScale []float64

	// Noise adds multiplicative lognormal-ish jitter to per-tile compute
	// times (fraction, e.g. 0.05 = ±5%), modelling the measurement
	// variation behind the paper's confidence intervals. 0 = fully
	// deterministic. Seed controls the jitter stream.
	Noise float64
	Seed  int64
}

// ImageResult is the simulated outcome for one input image.
type ImageResult struct {
	Latency      time.Duration
	InputXfer    time.Duration // Central→Conv tile transmission (serialized on the shared link)
	ConvCompute  time.Duration // max per-node tile compute span
	OutputXfer   time.Duration // Conv→Central intermediate-result transmission
	BackCompute  time.Duration // later layers on the Central node
	TilesMissed  int           // zero-filled at the drop deadline
	Alloc        sched.Allocation
	ReceivedByTL []int // n_k: results within the stats window
	// Utilization is each Conv node's effective CPU usage during this
	// image: (time spent computing / image latency) × throttle fraction —
	// the quantity Figure 15(a) plots.
	Utilization []float64
}

// Sim is the virtual-time ADCNN engine.
type Sim struct {
	cfg    SimConfig
	driver *sched.Driver

	tiles       int
	tileInWire  int64
	tileOutWire int64
	tileFLOPs   int64
	tileMemTraf int64
	backFLOPs   int64
	backMemTraf int64
	tileMem     int64

	window   time.Duration
	deadline time.Duration

	rng *rand.Rand

	trace   *telemetry.Trace
	imageNo int           // images simulated, for trace labels
	elapsed time.Duration // virtual wall clock across images
}

// SetTrace attaches a tracer: every subsequent RunImage emits its phase
// spans (send, per-tile compute, per-tile return, back) at virtual-time
// offsets, so a whole RunStream renders as one Perfetto timeline.
func (s *Sim) SetTrace(t *telemetry.Trace) {
	s.trace = t
	if t != nil {
		t.SetThreadName(0, "central")
		for k := range s.cfg.Nodes {
			t.SetThreadName(k+1, fmt.Sprintf("conv-%d", k))
		}
	}
}

// NewSim validates the config and precomputes the per-tile cost model.
func NewSim(cfg SimConfig) (*Sim, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Grid.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Nodes) == 0 || cfg.Central == nil {
		return nil, fmt.Errorf("core: need conv nodes and a central node")
	}
	if cfg.Gamma <= 0 || cfg.Gamma > 1 {
		return nil, fmt.Errorf("core: gamma %v out of (0,1]", cfg.Gamma)
	}
	if cfg.Pruning && (cfg.PruneRatio <= 0 || cfg.PruneRatio > 1) {
		return nil, fmt.Errorf("core: prune ratio %v out of (0,1]", cfg.PruneRatio)
	}
	bpv := cfg.InputBytesPerValue
	if bpv == 0 {
		bpv = 1
	}
	s := &Sim{cfg: cfg}
	s.tiles = cfg.Grid.Tiles()
	inValues := int64(cfg.Model.InputC) * int64(cfg.Model.InputH) * int64(cfg.Model.InputW)
	s.tileInWire = inValues * int64(bpv) / int64(s.tiles)
	rawOut := cfg.Model.FrontOutBytes() / int64(s.tiles)
	if cfg.Pruning {
		s.tileOutWire = int64(float64(rawOut) * cfg.PruneRatio)
		if s.tileOutWire < 16 {
			s.tileOutWire = 16
		}
	} else {
		s.tileOutWire = rawOut
	}
	s.tileFLOPs = cfg.Model.FrontFLOPs() / int64(s.tiles)
	s.tileMemTraf = cfg.Model.FrontMemBytes() / int64(s.tiles)
	s.backFLOPs = cfg.Model.BackFLOPs()
	s.backMemTraf = cfg.Model.BackMemBytes()
	// Peak transient memory per tile: input tile plus the largest
	// intermediate feature map the separable blocks produce for it.
	var peak int64
	for _, b := range cfg.Model.Profile()[:cfg.Model.Separable] {
		if v := b.IfmapBytes + b.OfmapBytes; v > peak {
			peak = v
		}
	}
	s.tileMem = cfg.Model.InputBytes()/int64(s.tiles) + peak/int64(s.tiles)

	s.window = cfg.StatsWindow
	if s.window == 0 {
		equal := (s.tiles + len(cfg.Nodes) - 1) / len(cfg.Nodes)
		perNode := cfg.Nodes[0].Model.Time(s.tileFLOPs*int64(equal), s.tileMemTraf*int64(equal))
		s.window = perNode * 5 / 4
	}
	s.deadline = cfg.DropDeadline
	if s.deadline == 0 {
		s.deadline = 4 * s.window
	}
	s.driver = sched.NewDriver(len(cfg.Nodes), cfg.Gamma, float64(s.tiles)/float64(len(cfg.Nodes)), nil)
	s.rng = rand.New(rand.NewSource(cfg.Seed + 1))
	return s, nil
}

// jitter scales a duration by (1 + Noise·N(0,1)), floored at half.
func (s *Sim) jitter(d time.Duration) time.Duration {
	if s.cfg.Noise <= 0 {
		return d
	}
	f := 1 + s.cfg.Noise*s.rng.NormFloat64()
	if f < 0.5 {
		f = 0.5
	}
	return time.Duration(float64(d) * f)
}

// Stats exposes the scheduling driver, whose Speeds are the live
// Algorithm 2 estimates (for inspection in tests).
func (s *Sim) Stats() *sched.Driver { return s.driver }

// Elapsed returns the virtual wall-clock time consumed so far.
func (s *Sim) Elapsed() time.Duration { return s.elapsed }

// simEpoch anchors the virtual clock for the scheduling driver. Any
// fixed instant after the zero time.Time works: the driver's "never
// revived" timestamp is the zero value, and a first probation revival
// must be due at once, exactly as on the live runtime's wall clock.
var simEpoch = time.Unix(0, 0)

// RunImage simulates one inference and updates scheduler state and
// device accounting.
func (s *Sim) RunImage() ImageResult {
	base := s.elapsed // virtual-time origin of this image, for tracing
	s.imageNo++
	img := s.imageNo
	caps := make([]int64, len(s.cfg.Nodes))
	for i, d := range s.cfg.Nodes {
		caps[i] = d.Capacity
		if caps[i] == 0 {
			caps[i] = int64(s.tiles) * s.tileInWire // effectively unlimited
		}
	}
	// Failed devices are reported dead immediately (link layer notices a
	// dead peer) so the allocator can avoid them even before Algorithm 2
	// decays their estimate. The simulator has no link estimator, so the
	// views carry no rates.
	nodes := make([]sched.NodeView, len(s.cfg.Nodes))
	for i, d := range s.cfg.Nodes {
		nodes[i].Alive = !d.Failed()
	}
	plan, err := s.driver.Plan(simEpoch.Add(base), uint32(img), s.tiles, nodes, s.tileInWire, caps)
	alloc := plan.Alloc
	if err != nil {
		// Nothing can run: all nodes failed. Model total loss: the image
		// is processed with all-zero features after the drop deadline.
		res := ImageResult{
			Latency:     s.deadline + s.cfg.Central.Model.Time(s.backFLOPs, s.backMemTraf),
			BackCompute: s.cfg.Central.Model.Time(s.backFLOPs, s.backMemTraf),
			TilesMissed: s.tiles,
			Alloc:       make(sched.Allocation, len(s.cfg.Nodes)),
		}
		s.trace.Instant("all-nodes-failed", "central", 0, base, map[string]any{"image": img})
		s.trace.Span(fmt.Sprintf("image %d", img), "image", 0, base, res.Latency,
			map[string]any{"missed": res.TilesMissed})
		s.elapsed += res.Latency
		return res
	}

	goodput := s.cfg.Link.GoodputBps()
	latency := time.Duration(s.cfg.Link.LatencyMs * float64(time.Millisecond))
	baseTxTile := time.Duration(float64(s.tileInWire)/goodput*float64(time.Second)) + latency/time.Duration(maxInt(s.tiles, 1))
	linkScale := func(k int) float64 {
		if k < len(s.cfg.LinkScale) && s.cfg.LinkScale[k] > 0 {
			return s.cfg.LinkScale[k]
		}
		return 1
	}
	txTileFor := func(k int) time.Duration {
		return time.Duration(float64(baseTxTile) / linkScale(k))
	}

	// Phase 1: Central streams tiles node by node on the shared medium.
	sendDone := make([]time.Duration, len(alloc))
	var cursor time.Duration
	firstTile := make([]time.Duration, len(alloc))
	for k, x := range alloc {
		if x == 0 {
			sendDone[k] = cursor
			continue
		}
		firstTile[k] = cursor + txTileFor(k)
		cursor += time.Duration(x) * txTileFor(k)
		sendDone[k] = cursor
	}
	allSent := cursor

	// Phase 2: per-node compute with optional pipelining. Each tile's
	// result is transmitted as soon as it is computed (paper Figure 8
	// step 3 streams intermediate results per tile), so we track every
	// tile's completion time individually.
	compSpan := make([]time.Duration, len(alloc))
	var events []retEvent // one per computed tile
	for k, x := range alloc {
		if x == 0 {
			continue
		}
		d := s.cfg.Nodes[k]
		ct, ok := d.ComputeTime(s.tileFLOPs, s.tileMemTraf)
		if !ok {
			continue // failed mid-allocation: its tiles never complete
		}
		ct = s.jitter(ct)
		done := firstTile[k]
		if !s.cfg.Pipeline {
			done = sendDone[k]
		}
		for m := 0; m < x; m++ {
			if s.cfg.Pipeline {
				arriveIn := firstTile[k] + time.Duration(m)*txTileFor(k)
				if arriveIn > done {
					done = arriveIn
				}
			}
			done += ct
			events = append(events, retEvent{k, done})
			s.trace.Span(fmt.Sprintf("tile %d/%d", m+1, x), "tile", k+1, base+done-ct, ct,
				map[string]any{"image": img, "node": k})
		}
		compSpan[k] = time.Duration(x) * ct
		d.RecordBusy(compSpan[k])
		d.Alloc(int64(x) * s.tileMem)
		d.Free(int64(x) * s.tileMem)
	}

	// Phase 3: tile results serialize on the shared return medium in
	// compute-completion order.
	sortRets(events)
	baseTxOut := time.Duration(float64(s.tileOutWire)/goodput*float64(time.Second)) + latency/8
	windowEnd := allSent + s.window
	dropEnd := allSent + s.deadline
	received := make([]int, len(alloc))
	arrivedTiles := 0
	var lastNeeded, linkFree, outSpan time.Duration
	for _, ev := range events {
		start := ev.done
		if linkFree > start {
			start = linkFree
		}
		arrive := start + time.Duration(float64(baseTxOut)/linkScale(ev.k))
		linkFree = arrive
		s.trace.Span("return", "xfer", ev.k+1, base+start, arrive-start,
			map[string]any{"image": img, "node": ev.k})
		if arrive > dropEnd {
			continue // zero-filled at the deadline
		}
		arrivedTiles++
		if arrive > lastNeeded {
			lastNeeded = arrive
		}
		if arrive <= windowEnd {
			received[ev.k]++
		}
		if d := arrive - ev.done; d > outSpan {
			outSpan = d
		}
	}
	missed := s.tiles - arrivedTiles
	if missed > 0 {
		lastNeeded = dropEnd
	}
	back := s.cfg.Central.Model.Time(s.backFLOPs, s.backMemTraf)
	s.cfg.Central.RecordBusy(back)
	total := lastNeeded + back
	s.driver.Settle(received, float64(s.tileInWire), float64(s.tileOutWire), total)

	util := make([]float64, len(s.cfg.Nodes))
	for k, d := range s.cfg.Nodes {
		if total > 0 {
			frac := float64(compSpan[k]) / float64(total)
			if frac > 1 {
				frac = 1
			}
			util[k] = frac * d.Throttle()
		}
	}
	if s.trace != nil {
		s.trace.Span("send", "xfer", 0, base, allSent, map[string]any{"image": img})
		s.trace.Span("back", "compute", 0, base+lastNeeded, back, map[string]any{"image": img})
		if missed > 0 {
			s.trace.Instant("zero-fill", "central", 0, base+dropEnd,
				map[string]any{"image": img, "missed": missed})
		}
		s.trace.Span(fmt.Sprintf("image %d", img), "image", 0, base, total,
			map[string]any{"missed": missed, "alloc": fmt.Sprint(alloc)})
	}
	res := ImageResult{
		Latency:      total,
		InputXfer:    allSent,
		ConvCompute:  maxSpan(compSpan),
		OutputXfer:   outSpan,
		BackCompute:  back,
		TilesMissed:  missed,
		Alloc:        alloc,
		ReceivedByTL: received,
		Utilization:  util,
	}
	s.elapsed += total
	return res
}

// RunImages simulates n consecutive inferences, applying any scheduled
// throttle events before each image.
func (s *Sim) RunImages(n int, events []cluster.ThrottleEvent) []ImageResult {
	out := make([]ImageResult, 0, n)
	for i := 0; i < n; i++ {
		cluster.ApplyEvents(s.cfg.Nodes, events, i)
		out = append(out, s.RunImage())
	}
	return out
}

func maxSpan(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// retEvent is a node's compute-completion event on the return link.
type retEvent struct {
	k    int
	done time.Duration
}

// sortRets orders return events by completion time (insertion sort — the
// slice is at most the node count).
func sortRets(rs []retEvent) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].done < rs[j-1].done; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
