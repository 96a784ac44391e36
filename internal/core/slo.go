package core

import (
	"fmt"
	"time"

	"adcnn/internal/telemetry"
)

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
// last image's critical path (Breakdown.Critical).
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
		c.critMu.Lock()
		crit := c.crit
		c.critMu.Unlock()
		reason := fmt.Sprintf("slo-breach %s", tr.Objective)
		if crit.excess > 0 {
			reason += fmt.Sprintf(" worst-node=%d phase=%s excess=%v", crit.node, PhaseNames[crit.phase], crit.excess)
		}
		c.flight.DumpAll(reason)
	})
}
