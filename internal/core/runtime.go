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
	TL time.Duration

	// driver is the allocation policy (Algorithms 2 and 3, the cluster
	// share, link-aware derating, probation revival): allocate asks it
	// for a plan, updateStats settles the image with it.
	driver *sched.Driver

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
	backMu   sync.Mutex   // serializes the back-layer compute stage

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
		grid:      grid,
		halo:      halo,
		metrics:   cfg.Metrics,
		trace:     cfg.Trace,
		flight:    cfg.Flight,
		traceBase: uint64(time.Now().UnixNano()) << 20,
		ctx:       ctx,
		cancel:    cancel,
	}
	c.pending.init()
	var mon *sched.Monitor
	if met := cfg.Metrics; met != nil {
		c.pending.stale = met.StaleResults
		c.health = NewHealthTracker(n, met.NodeHealth)
		mon = met.Sched
	}
	c.driver = sched.NewDriver(n, cfg.Gamma, float64(grid.Tiles())/float64(n), mon)
	c.driver.SetLinkAware(cfg.LinkAware)
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
// for this replica (see sched.Driver.SetShare). Safe to call
// concurrently with Infer — shares take effect on the next allocation.
func (c *Central) SetShare(share []float64) { c.driver.SetShare(share) }

// SetLinkAware switches link-aware dispatch (see
// sched.Driver.SetLinkAware). Safe to call at any time — the chaos
// harness flips it mid-run to contrast speed-only and link-aware
// dispatch under the same fault.
func (c *Central) SetLinkAware(on bool) { c.driver.SetLinkAware(on) }

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
