package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/sched"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// InferStats reports one distributed inference's runtime behaviour.
type InferStats struct {
	Latency     time.Duration
	TilesMissed int
	Alloc       sched.Allocation
	Received    []int
	WireBytes   int64 // total result bytes received
	// TraceID identifies this image across both sides of the wire: every
	// span the Central and the Conv nodes contribute to the Chrome trace
	// carries it, as does every tile frame.
	TraceID uint64
	// Breakdown is the per-tile latency decomposition (nil only when no
	// tile returned a timing-capable result).
	Breakdown *Breakdown
}

// Dialer re-establishes the connection to one Conv node.
type Dialer = func(context.Context) (Conn, error)

// CentralConfig is everything a Central is built from. It is fixed at
// construction: Start validates it, wraps the connections and starts
// the node sessions, so there is no window in which a Central exists
// half-configured. What can change while the runtime is live is a
// method on Central (SetShare, SetLinkAware, AddNode, RemoveNode).
type CentralConfig struct {
	// Model is this Central's model instance. A partitioned model runs
	// ADCNN's FDSP execution over the model's own grid; an unpartitioned
	// (original-weights) model runs exact halo-extended execution over
	// Grid — the AOFL/DeepThings style the paper compares against.
	Model *models.Model
	// Conns holds one established connection per Conv node.
	Conns []Conn
	// Dialers, when non-nil, holds one entry per connection: a non-nil
	// entry lets that node's session re-establish a failed connection
	// (exponential backoff). Without one a failed node stays dead
	// forever, which is the right default for in-process pipes.
	Dialers []Dialer
	// TL is the wait deadline for intermediate results (paper Section
	// 6.1); Gamma is Algorithm 2's decay.
	TL    time.Duration
	Gamma float64
	// Grid selects halo execution and is required exactly when Model is
	// unpartitioned: every tile is sent extended by the separable
	// prefix's receptive-field margin (fdsp.HaloExtension) and its result
	// cropped before reassembly. No retraining is needed and the output
	// equals local execution — at the cost of transmitting and computing
	// the overlap, which is the overhead FDSP eliminates. Exactness is
	// the contract, so a tile that misses T_L fails the image instead of
	// being zero-filled.
	Grid fdsp.Grid
	// Metrics, when set, meters every connection and records the full
	// metric catalog, the windowed SLO instruments and per-node health.
	Metrics *Metrics
	// Trace, when set, receives per-image phase spans on tid 0 and
	// per-tile spans (both sides of the wire) on tid node+1.
	Trace *telemetry.Trace
	// Flight, when set, receives the structured event stream (enqueue,
	// sent, result, stale, deadline misses, session transitions) and
	// dumps the affected image's recent events whenever a tile misses
	// T_L or a session fails over.
	Flight *telemetry.FlightRecorder
	// ProbeEvery, when >0, sends every node session a link probe each
	// interval: the probes keep the RTT/offset estimate fresh through
	// idle periods and cost 8 payload bytes each way.
	ProbeEvery time.Duration
	// LinkAware is the initial state of link-aware dispatch (see
	// Central.SetLinkAware).
	LinkAware bool
}

// Central is the ADCNN Central node: input-partition block, statistics
// collection block (Algorithm 2) and layer-computation block. The live
// runtime is session-based: one persistent nodeSession per Conv node
// (send loop + recv loop), a pending-table demux routing results to
// per-image collectors, and cancellation plumbed from Shutdown and the
// T_L deadline down to every blocking point. Multiple images may be in
// flight at once (InferAsync / Pipeline); Infer is the synchronous
// convenience wrapper. Every image, FDSP or halo, goes through the one
// tile lifecycle in inflight.go.
//
// Everything here — the per-node sessions with their epochs and
// clock-offset estimators, the pending table, the Algorithm 2 statistics
// — is private to one Central, so a Central is also one replica of the
// control plane: several can drive the same Conv pool concurrently (the
// Conv side serves each an independent session; see NodeServer), with
// the pool-wide state (capacity shares, steal queues) above them in
// Cluster. SetShare tells a replica what fraction of each node's
// capacity the cluster partitioner has assigned it, so co-resident
// replicas split a node rather than both assuming they own it.
type Central struct {
	Model *models.Model
	// TL is the wait deadline for intermediate results; missing tiles are
	// zero-filled (paper Section 6.1).
	TL    time.Duration
	Stats *sched.Stats

	grid fdsp.Grid  // the model's grid, or the config's in halo mode
	halo *haloShape // nil in FDSP mode

	metrics *Metrics
	trace   *telemetry.Trace
	flight  *telemetry.FlightRecorder
	health  *HealthTracker

	// traceBase salts per-image trace IDs so traces from successive runs
	// don't collide when merged; the image ID is folded in per image.
	traceBase uint64

	imageID  atomic.Uint32
	inflight atomic.Int64 // images dispatched, Wait not finished
	mu       sync.Mutex   // guards Stats, share, and allocation
	backMu   sync.Mutex   // serializes the back-layer compute stage

	// share scales each node's measured speed in the allocator: the
	// cluster partitioner's per-replica capacity share (nil = this
	// replica owns every node outright).
	share []float64

	// linkAware folds per-node transfer costs into the allocation (see
	// sched.EffectiveSpeeds). Off by default: with no link estimates the
	// effective speeds equal the measured ones anyway, but the gate keeps
	// the historical allocation byte-identical for existing callers.
	linkAware atomic.Bool
	// Transfer-cost calibration, guarded by mu: EWMA per-tile payload
	// bytes in each direction, and the EWMA image latency that converts
	// link seconds into the allocator's 1/s_k units.
	upBytesEWMA   float64
	downBytesEWMA float64
	latEWMA       float64 // seconds

	// probation, guarded by mu, timestamps the last probation revival
	// per node: an alive node whose Algorithm 2 estimate has starved to
	// ~zero (it stopped receiving tiles, so its EWMA decayed and the
	// allocator would never re-measure it) is periodically re-admitted
	// at the cold-start weight. A handful of probe tiles then either
	// restore its estimate or the telemetry pushes it back out.
	probation []time.Time

	// The membership view (membership.go) and the demux that routes
	// results to per-image collectors. sessions is append-only: RemoveNode
	// tombstones a session rather than shrinking the slice.
	sessMu   sync.Mutex
	sessions []*nodeSession
	pending  demux
	loopWG   sync.WaitGroup // session supervisors and the probe loop

	ctx    context.Context
	cancel context.CancelFunc
}

// haloShape is the tile geometry of halo execution: how far each tile is
// extended on the way out, and the separable prefix's total downsampling
// (which maps input-pixel offsets onto result-pixel offsets for the
// crop).
type haloShape struct{ margin, down int }

// NewCentral is the shorthand for the common case: a partitioned model,
// no reconnects, no observability. gamma is Algorithm 2's decay.
func NewCentral(m *models.Model, conns []Conn, tl time.Duration, gamma float64) (*Central, error) {
	return CentralConfig{Model: m, Conns: conns, TL: tl, Gamma: gamma}.Start()
}

// Start validates the configuration and returns a running Central: the
// connections are metered (when Metrics is set), one session per node
// is up, and the link-probe loop is ticking (when ProbeEvery is set).
func (cfg CentralConfig) Start() (*Central, error) {
	m := cfg.Model
	if m == nil {
		return nil, fmt.Errorf("core: central needs a model")
	}
	if len(cfg.Conns) == 0 {
		return nil, fmt.Errorf("core: central needs at least one conv node")
	}
	if cfg.Dialers != nil && len(cfg.Dialers) != len(cfg.Conns) {
		return nil, fmt.Errorf("core: %d dialers for %d conv nodes", len(cfg.Dialers), len(cfg.Conns))
	}
	grid, haloMode := m.Opt.Grid, cfg.Grid != (fdsp.Grid{})
	var halo *haloShape
	switch {
	case m.Opt.Partitioned() && haloMode:
		return nil, fmt.Errorf("core: a partitioned model brings its own grid; Grid is for halo mode on the original model")
	case !m.Opt.Partitioned() && !haloMode:
		return nil, fmt.Errorf("core: central requires a partitioned model, or a Grid for halo execution")
	case haloMode:
		if m.Opt.Clipped() {
			return nil, fmt.Errorf("core: halo mode needs the original (unmodified) model")
		}
		if err := cfg.Grid.Validate(); err != nil {
			return nil, err
		}
		grid, halo = cfg.Grid, newHaloShape(m.Cfg)
	}

	ctx, cancel := context.WithCancel(context.Background())
	n := len(cfg.Conns)
	c := &Central{
		Model:     m,
		TL:        cfg.TL,
		Stats:     sched.NewStats(n, cfg.Gamma, float64(grid.Tiles())/float64(n)),
		grid:      grid,
		halo:      halo,
		metrics:   cfg.Metrics,
		trace:     cfg.Trace,
		flight:    cfg.Flight,
		traceBase: uint64(time.Now().UnixNano()) << 20,
		ctx:       ctx,
		cancel:    cancel,
	}
	c.linkAware.Store(cfg.LinkAware)
	c.pending.init()
	if met := cfg.Metrics; met != nil {
		c.pending.stale = met.StaleResults
		c.health = NewHealthTracker(n, met.NodeHealth)
	}
	cfg.Trace.SetThreadName(0, "central")
	for k, conn := range cfg.Conns {
		var dial Dialer
		if cfg.Dialers != nil {
			dial = cfg.Dialers[k]
		}
		c.addSession(conn, dial)
	}
	if cfg.ProbeEvery > 0 {
		c.loopWG.Add(1)
		go c.probeLoop(cfg.ProbeEvery)
	}
	return c, nil
}

// newHaloShape derives the halo margin of cfg's separable prefix,
// rounded up to its downsampling factor so the crop offsets are whole
// result pixels.
func newHaloShape(cfg models.Config) *haloShape {
	var geoms []fdsp.LayerGeom
	for _, g := range cfg.HaloGeoms(cfg.Separable) {
		geoms = append(geoms, fdsp.LayerGeom{Kernel: g[0], Stride: g[1]})
	}
	margin, down := fdsp.HaloMargin(geoms), fdsp.Downsample(geoms)
	if margin%down != 0 {
		margin += down - margin%down
	}
	return &haloShape{margin: margin, down: down}
}

// SetShare installs the cluster partitioner's per-node capacity shares
// for this replica: node k's measured speed is scaled by share[k] in
// every subsequent allocation, so a replica granted 40% of a node
// routes 40% of the tiles it would have routed owning the node alone.
// A nil or short share leaves the remaining nodes unscaled. Safe to
// call concurrently with Infer — shares take effect on the next
// allocation.
func (c *Central) SetShare(share []float64) {
	c.mu.Lock()
	c.share = append(c.share[:0], share...)
	c.mu.Unlock()
}

// SetLinkAware switches link-aware dispatch: when on, the per-node
// transfer cost (EWMA tile bytes over the measured link rates) is
// folded into every subsequent allocation; when off, allocations use
// the pure-compute cost 1/s_k. Safe to call at any time — the chaos
// harness flips it mid-run to contrast speed-only and link-aware
// dispatch under the same fault; nodes without converged link estimates
// keep their pure-compute cost either way.
func (c *Central) SetLinkAware(on bool) { c.linkAware.Store(on) }

// InFlight reports how many images have been dispatched whose Wait has
// not finished — the replica's instantaneous load, used by the cluster
// rebalancer as its demand signal.
func (c *Central) InFlight() int { return int(c.inflight.Load()) }

// NumNodes reports the current size of the membership view (including
// tombstoned nodes that have left).
func (c *Central) NumNodes() int { return len(c.snapshot()) }

// probeLoop fans one link probe out to every session per tick.
func (c *Central) probeLoop(every time.Duration) {
	defer c.loopWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			for _, s := range c.snapshot() {
				s.sendProbe()
			}
		}
	}
}

// Infer runs one distributed inference for a [1,C,H,W] input and returns
// the model output.
func (c *Central) Infer(x *tensor.Tensor) (*tensor.Tensor, InferStats, error) {
	return c.InferContext(context.Background(), x)
}

// InferContext is Infer with cancellation: the context aborts dispatch
// and collection; the T_L deadline still bounds the result wait.
func (c *Central) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, InferStats, error) {
	h, err := c.InferAsync(ctx, x)
	if err != nil {
		return nil, InferStats{}, err
	}
	return h.Wait()
}

// Shutdown cancels the runtime context, stopping every node session's
// send and recv loop, and closes the connections (Conv nodes treat the
// EOF as a clean disconnect). It blocks until all session goroutines
// have exited. An Inflight still waiting on results fails with a
// shut-down error.
func (c *Central) Shutdown() {
	c.cancel()
	c.loopWG.Wait()
	for _, s := range c.snapshot() {
		s.closeConn()
	}
}

// calibEWMA folds one calibration sample (per-tile bytes, image
// latency) into its running estimate; the first sample seeds it.
const linkCalibAlpha = 0.2

func calibEWMA(cur, sample float64) float64 {
	if cur <= 0 {
		return sample
	}
	return cur + linkCalibAlpha*(sample-cur)
}

// latRefEWMA folds an image-latency sample into the reference scale
// that converts link seconds into allocator cost. Unlike the byte
// calibration this reference must not chase a fault: a collapsed link
// inflates image latency, and a reference that follows it makes the
// collapsed link's transfer cost look proportionally cheap, neutering
// the derating exactly when it is needed — the same reason the health
// tracker freezes its baseline during an anomaly. Downward moves
// attack at the calibration rate; upward moves creep.
const latRefDecayAlpha = 0.02

func latRefEWMA(cur, sample float64) float64 {
	if cur <= 0 {
		return sample
	}
	a := linkCalibAlpha
	if sample > cur {
		a = latRefDecayAlpha
	}
	return cur + a*(sample-cur)
}

// linkSecsLocked estimates each alive node's per-tile transfer time in
// seconds: EWMA payload bytes over the node's measured link rates. A
// direction without a converged, fresh estimate contributes nothing, so
// a node the profiler knows nothing about keeps its pure-compute cost.
// Callers hold c.mu.
func (c *Central) linkSecsLocked(sessions []*nodeSession) []float64 {
	if c.upBytesEWMA <= 0 && c.downBytesEWMA <= 0 {
		return nil
	}
	out := make([]float64, len(sessions))
	any := false
	for k, s := range sessions {
		up, down := s.link.rates()
		if up > 0 && c.upBytesEWMA > 0 {
			out[k] += c.upBytesEWMA / up
			any = true
		}
		if down > 0 && c.downBytesEWMA > 0 {
			out[k] += c.downBytesEWMA / down
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}

// Probation revival: how often a starved-but-alive node is re-admitted,
// and how far below the best alive estimate a node must have fallen to
// count as starved. γ=0.9 drops a zero-tile node's estimate by 10× per
// image, so "starved" is unambiguous within a handful of images. The
// interval must comfortably exceed one re-measurement burst (the
// linkMinSamples images a revived node serves before its fresh link
// estimate can derate it again), or a still-faulty node would re-enter
// back-to-back and the probe traffic itself would hold the SLO in
// breach; at 2s the exploration cost is a few tiles per starved node
// per interval.
const (
	probationInterval = 2 * time.Second
	probationFrac     = 0.02
)

// probationRevivesLocked re-admits alive nodes whose speed estimate has
// decayed to effectively zero. Algorithm 2 has a blind spot the chaos
// bandwidth drill exposes: a node shed by link-aware dispatch (or any
// transient stall) receives no tiles, its EWMA decays toward zero, and
// Allocate skips zero-speed nodes forever — the node is starved even
// after the fault heals. Reviving it to the cold-start weight every
// probationInterval routes a few tiles through it, refreshing both the
// speed estimate and the link telemetry. The link estimate is reset
// alongside: it describes conditions from before the starvation and
// would otherwise derate the node back out after a single probe tile,
// throttling re-measurement to one sample per staleness cycle. Cleared,
// the min-samples gate leaves the node underated for a few images —
// exactly long enough to re-measure the link as it is now. Callers
// hold c.mu.
func (c *Central) probationRevivesLocked(sessions []*nodeSession, now time.Time) {
	n := c.Stats.Nodes()
	for len(c.probation) < n {
		c.probation = append(c.probation, time.Time{})
	}
	best := 0.0
	for k, s := range sessions {
		if k < n && s.Alive() {
			if v := c.Stats.Speed(k); v > best {
				best = v
			}
		}
	}
	if best <= 0 {
		return
	}
	for k, s := range sessions {
		if k >= n || !s.Alive() || c.Stats.Speed(k) >= probationFrac*best {
			continue
		}
		if now.Sub(c.probation[k]) < probationInterval {
			continue
		}
		c.probation[k] = now
		c.Stats.Revive(k)
		s.link.reset()
		if c.metrics != nil {
			c.metrics.Revives.With(nodeLabel(k)).Inc()
		}
		if c.flight != nil {
			c.flight.Record("probation-revive", 0, 0, k,
				"starved speed estimate: re-admitting node at cold-start weight")
		}
	}
}

// aliveSpeedsLocked returns the allocator's speed vector for a session
// snapshot: the Algorithm 2 estimates, zeroed for down sessions and
// scaled by the cluster share. Callers hold c.mu.
func (c *Central) aliveSpeedsLocked(sessions []*nodeSession) []float64 {
	speeds := c.Stats.Speeds()
	if len(speeds) > len(sessions) {
		speeds = speeds[:len(sessions)]
	}
	for len(speeds) < len(sessions) {
		speeds = append(speeds, 0)
	}
	for k, s := range sessions {
		if !s.Alive() {
			speeds[k] = 0
			continue
		}
		if k < len(c.share) {
			speeds[k] *= c.share[k]
		}
	}
	return speeds
}
