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
// half-configured. The Conv-node set is fixed here too.
type CentralConfig struct {
	// Model is this Central's model instance; it must be partitioned, and
	// every image is tiled with the model's own grid (FDSP).
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
	// Metrics, when set, records the metric catalog the SLO engine and
	// adcnn-top read, and per-node health.
	Metrics *Metrics
	// Trace, when set, receives per-image phase spans on tid 0 and
	// per-tile spans (both sides of the wire) on tid node+1.
	Trace *telemetry.Trace
	// Flight, when set, receives the structured event stream (enqueue,
	// sent, result, stale, deadline misses, session transitions) and
	// dumps the affected image's recent events whenever a tile misses
	// T_L or a session fails over.
	Flight *telemetry.FlightRecorder
}

// Central is the ADCNN Central node: input-partition block, statistics
// collection block (Algorithm 2) and layer-computation block. The live
// runtime is session-based: one persistent nodeSession per Conv node
// (send loop + recv loop), a pending-table demux routing results to
// per-image collectors, and cancellation plumbed from Shutdown and the
// T_L deadline down to every blocking point. Multiple images may be in
// flight at once (InferAsync / Pipeline); Infer is the synchronous
// convenience wrapper. Every image goes through the one tile lifecycle
// in inflight.go.
type Central struct {
	Model *models.Model
	// TL is the wait deadline for intermediate results; missing tiles are
	// zero-filled (paper Section 6.1).
	TL time.Duration

	// driver is the allocation policy (Algorithms 2 and 3, probation
	// revival): allocate asks it for a plan, updateStats settles the
	// image with it.
	driver *sched.Driver

	grid fdsp.Grid // the model's grid

	metrics *Metrics
	trace   *telemetry.Trace
	flight  *telemetry.FlightRecorder
	health  *HealthTracker

	// traceBase salts per-image trace IDs so traces from successive runs
	// don't collide when merged; the image ID is folded in per image.
	traceBase uint64

	imageID atomic.Uint32
	backMu  sync.Mutex // serializes the back-layer compute stage

	// The membership view, one session per node index (membership.go),
	// and the demux that routes results to per-image collectors. Start
	// fills sessions before any session goroutine runs; it is never
	// written again, so it is read without a lock.
	sessions []*nodeSession
	pending  demux
	loopWG   sync.WaitGroup // session supervisors

	ctx    context.Context
	cancel context.CancelFunc
}

// NewCentral is the shorthand for the common case: a partitioned model,
// no reconnects, no observability. gamma is Algorithm 2's decay.
func NewCentral(m *models.Model, conns []Conn, tl time.Duration, gamma float64) (*Central, error) {
	return CentralConfig{Model: m, Conns: conns, TL: tl, Gamma: gamma}.Start()
}

// Start validates the configuration and returns a running Central with
// one session per node up.
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
	if !m.Opt.Partitioned() {
		return nil, fmt.Errorf("core: central requires a partitioned model")
	}

	ctx, cancel := context.WithCancel(context.Background())
	n := len(cfg.Conns)
	c := &Central{
		Model:     m,
		TL:        cfg.TL,
		grid:      m.Opt.Grid,
		metrics:   cfg.Metrics,
		trace:     cfg.Trace,
		flight:    cfg.Flight,
		traceBase: uint64(time.Now().UnixNano()) << 20,
		ctx:       ctx,
		cancel:    cancel,
	}
	c.pending.init()
	var audit *sched.Audit
	if met := cfg.Metrics; met != nil {
		c.health = NewHealthTracker(n, met.NodeHealth)
		audit = met.Audit
	}
	c.driver = sched.NewDriver(n, cfg.Gamma, float64(c.grid.Tiles())/float64(n), audit)
	cfg.Trace.SetThreadName(0, "central")
	c.sessions = make([]*nodeSession, n)
	for k, conn := range cfg.Conns {
		var dial Dialer
		if cfg.Dialers != nil {
			dial = cfg.Dialers[k]
		}
		c.sessions[k] = newNodeSession(k, c, conn, dial)
		cfg.Trace.SetThreadName(k+1, fmt.Sprintf("conv-%d", k))
	}
	c.loopWG.Add(n)
	for _, s := range c.sessions {
		go s.run()
	}
	return c, nil
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
	for _, s := range c.sessions {
		s.closeConn()
	}
}
