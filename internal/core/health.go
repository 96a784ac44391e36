package core

import (
	"fmt"
	"sync"
	"time"

	"adcnn/internal/telemetry"
)

// Gray-failure health scoring. A node that dies outright is caught by
// the session layer (session-down, reconnects); a node that silently
// degrades — thermal throttling, a congested uplink, a co-tenant
// stealing cycles — keeps answering but slower, and Algorithm 2's s_k
// folds the slowdown into one number without saying *why*. The tracker
// watches the per-tile phase decomposition (PR "tracing" layer) per
// node and per phase with two EWMAs:
//
//	fast (α≈0.25)  the node's behaviour over the last ~dozen tiles
//	slow (α≈0.02)  the node's learned baseline
//
// The health score is the worst relative deviation of fast over slow
// across the watched phases (compute, uplink, node_queue):
//
//	score = max_phase max(0, fast/slow − 1)
//
// 0 means "behaving like its own baseline"; 1 means "some phase is
// running 2× its baseline". The baseline is frozen while the fast EWMA
// is anomalous (ratio > freezeRatio), so a sustained slowdown cannot
// launder itself into the baseline and disappear. Scores are exported
// as adcnn_central_node_health{node} and the worst node is named in
// SLO-breach flight dumps.

// healthPhases are the phases the scorer watches: the three where a
// gray failure manifests. Downlink/dispatch/collect are dominated by
// the Central's own load and would blame the wrong party.
var healthPhases = [3]int{PhaseCompute, PhaseUplink, PhaseNodeQueue}

// Health tuning constants.
const (
	healthFastAlpha   = 0.25
	healthSlowAlpha   = 0.02
	healthWarmup      = 8    // samples before a node is judged
	healthFreezeRatio = 1.5  // fast/slow above this freezes the baseline
	healthFloorNs     = 50e3 // 50µs: phases below this are noise, not signal
)

// nodeHealth is one node's EWMA state.
type nodeHealth struct {
	fast, slow [len(healthPhases)]float64 // seconds
	samples    uint64
	score      float64
	worstPhase int
}

// HealthTracker scores every Conv node for gray failure. All methods
// are nil-receiver safe; Observe is called on the per-tile collect path
// and does two float ops per watched phase under one short mutex hold.
type HealthTracker struct {
	mu    sync.Mutex
	nodes []nodeHealth
	gauge *telemetry.GaugeVec // adcnn_central_node_health; may be nil
}

// NewHealthTracker creates a tracker for n nodes. gauge may be nil.
func NewHealthTracker(n int, gauge *telemetry.GaugeVec) *HealthTracker {
	return &HealthTracker{nodes: make([]nodeHealth, n), gauge: gauge}
}

// Observe folds one tile's phase decomposition into node's EWMAs and
// refreshes its score.
func (t *HealthTracker) Observe(node int, tb *TileBreakdown) {
	if t == nil || node < 0 || node >= len(t.nodes) {
		return
	}
	t.mu.Lock()
	h := &t.nodes[node]
	h.samples++
	warm := h.samples > healthWarmup
	score, worstPhase := 0.0, -1
	for i, p := range healthPhases {
		v := tb.Phase[p].Seconds()
		if v < 0 {
			v = 0
		}
		if h.samples == 1 {
			h.fast[i], h.slow[i] = v, v
			continue
		}
		h.fast[i] = (1-healthFastAlpha)*h.fast[i] + healthFastAlpha*v
		base := h.slow[i]
		ratio := 1.0
		if base > healthFloorNs/1e9 {
			ratio = h.fast[i] / base
		}
		// Freeze the baseline while this phase is anomalous so a
		// sustained slowdown cannot become the new normal.
		if !warm || ratio <= healthFreezeRatio {
			h.slow[i] = (1-healthSlowAlpha)*h.slow[i] + healthSlowAlpha*v
		}
		if warm {
			if d := ratio - 1; d > score {
				score, worstPhase = d, p
			}
		}
	}
	h.score, h.worstPhase = score, worstPhase
	gauge := t.gauge
	t.mu.Unlock()
	if gauge != nil {
		gauge.With(nodeLabel(node)).Set(score)
	}
}

// Scores returns every node's current score.
func (t *HealthTracker) Scores() []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(t.nodes))
	for i := range t.nodes {
		out[i] = t.nodes[i].score
	}
	return out
}

// Worst returns the unhealthiest node, its score, and the phase driving
// it ("" when healthy). node is −1 when the tracker has no nodes.
func (t *HealthTracker) Worst() (node int, score float64, phase string) {
	if t == nil {
		return -1, 0, ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	node = -1
	for i := range t.nodes {
		if node == -1 || t.nodes[i].score > score {
			node, score = i, t.nodes[i].score
		}
	}
	if node >= 0 && t.nodes[node].worstPhase >= 0 {
		phase = PhaseNames[t.nodes[node].worstPhase]
	}
	return node, score, phase
}

// Health returns the Central's gray-failure tracker (nil when metrics
// are disabled).
func (c *Central) Health() *HealthTracker { return c.health }

// SLOConfig selects the Central's standard SLO objectives. Zero values
// take the defaults; a negative threshold/budget disables that
// objective.
type SLOConfig struct {
	// TileP99 is the p99 tile round-trip latency threshold in seconds.
	TileP99 float64
	// MissBudget is the tolerated zero-fill fraction (missed tiles over
	// all settled tiles).
	MissBudget float64
	// FastWindow/SlowWindow are the burn-rate evaluation windows.
	FastWindow, SlowWindow time.Duration
}

// Default SLO parameters: p99 tile latency under 250ms, zero-fill under
// 1%, judged over a 2s fast / 16s slow window pair.
const (
	DefaultTileP99    = 0.250
	DefaultMissBudget = 0.01
)

// DefaultSLOWindows are the standard burn-rate windows.
var DefaultSLOWindows = [2]time.Duration{2 * time.Second, 16 * time.Second}

// SLOTileLatency and SLOZeroFill name the standard objectives.
const (
	SLOTileLatency = "tile_latency_p99"
	SLOZeroFill    = "zero_fill_ratio"
)

// NewSLOEngine builds an engine over m's cumulative tile instruments
// with the standard ADCNN objectives: p99 of TileRoundTrip, and the
// zero-fill ratio of TilesMissed over the tiles TileRoundTrip settled.
func NewSLOEngine(m *Metrics, cfg SLOConfig) *telemetry.SLOEngine {
	if cfg.TileP99 == 0 {
		cfg.TileP99 = DefaultTileP99
	}
	if cfg.MissBudget == 0 {
		cfg.MissBudget = DefaultMissBudget
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = DefaultSLOWindows[0]
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = DefaultSLOWindows[1]
	}
	e := telemetry.NewSLOEngine(m.Registry)
	if cfg.TileP99 > 0 {
		e.Register(telemetry.NewLatencySLO(SLOTileLatency, m.TileRoundTrip,
			0.99, cfg.TileP99, cfg.FastWindow, cfg.SlowWindow))
	}
	if cfg.MissBudget > 0 {
		e.Register(telemetry.NewRatioSLO(SLOZeroFill, m.TileRoundTrip, m.TilesMissed,
			cfg.MissBudget, cfg.FastWindow, cfg.SlowWindow))
	}
	return e
}

// WireSLO subscribes the Central to engine transitions: every
// transition lands in the flight-recorder event stream, and a
// transition *into* breach dumps the whole ring — the events leading up
// to the breach span many images, so the image-scoped Dump would lose
// them — with the dump reason naming the breaching objective and the
// worst-health node.
func (c *Central) WireSLO(engine *telemetry.SLOEngine) {
	if engine == nil {
		return
	}
	engine.Subscribe(func(tr telemetry.SLOTransition) {
		c.flight.Record("slo-"+tr.ToName, 0, -1, -1,
			fmt.Sprintf("%s %s→%s: %s", tr.Objective, tr.FromName, tr.ToName, tr.Detail))
		if tr.To != telemetry.SLOBreach {
			return
		}
		node, score, phase := c.health.Worst()
		reason := fmt.Sprintf("slo-breach %s", tr.Objective)
		if node >= 0 && score > 0 {
			reason += fmt.Sprintf(" worst-node=%d health=%.2f phase=%s", node, score, phase)
		}
		c.flight.DumpAll(reason)
	})
}
