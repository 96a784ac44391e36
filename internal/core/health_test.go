package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// tileWithPhases fabricates a breakdown whose watched phases hold the
// given durations (seconds).
func tileWithPhases(compute, uplink, queue float64) *TileBreakdown {
	tb := &TileBreakdown{}
	tb.Phase[PhaseCompute] = time.Duration(compute * 1e9)
	tb.Phase[PhaseUplink] = time.Duration(uplink * 1e9)
	tb.Phase[PhaseNodeQueue] = time.Duration(queue * 1e9)
	return tb
}

func TestHealthTrackerScoresGrayFailure(t *testing.T) {
	reg := telemetry.NewRegistry()
	gauge := reg.GaugeVec("adcnn_central_node_health", "", "node")
	h := NewHealthTracker(2, gauge)

	// Both nodes behave identically through warmup.
	for i := 0; i < 50; i++ {
		h.Observe(0, tileWithPhases(0.010, 0.002, 0.001))
		h.Observe(1, tileWithPhases(0.010, 0.002, 0.001))
	}
	for k := 0; k < 2; k++ {
		if s := h.Score(k); s > 0.1 {
			t.Fatalf("steady node %d scored %.3f, want ~0", k, s)
		}
	}

	// Node 1 gray-fails: compute quietly goes 5×.
	for i := 0; i < 30; i++ {
		h.Observe(0, tileWithPhases(0.010, 0.002, 0.001))
		h.Observe(1, tileWithPhases(0.050, 0.002, 0.001))
	}
	if s := h.Score(1); s < 1.0 {
		t.Fatalf("5x compute slowdown scored only %.3f", s)
	}
	if s := h.Score(0); s > 0.1 {
		t.Fatalf("healthy node contaminated: %.3f", s)
	}
	node, score, phase := h.Worst()
	if node != 1 || score < 1.0 || phase != "compute" {
		t.Fatalf("Worst() = (%d, %.3f, %q), want node 1, compute", node, score, phase)
	}
	if v, ok := reg.Value("adcnn_central_node_health", "1"); !ok || v < 1.0 {
		t.Fatalf("health gauge = %v (ok=%v)", v, ok)
	}

	// The frozen baseline: even after a long anomaly, recovery to the
	// original behaviour must read as healthy again (the baseline did
	// not drift up to the degraded level).
	for i := 0; i < 60; i++ {
		h.Observe(1, tileWithPhases(0.010, 0.002, 0.001))
	}
	if s := h.Score(1); s > 0.25 {
		t.Fatalf("recovered node still scores %.3f — baseline drifted during anomaly", s)
	}

	scores := h.Scores()
	if len(scores) != 2 {
		t.Fatalf("Scores() length %d", len(scores))
	}
}

func TestHealthTrackerUplinkAnomaly(t *testing.T) {
	h := NewHealthTracker(1, nil)
	for i := 0; i < 40; i++ {
		h.Observe(0, tileWithPhases(0.010, 0.002, 0.001))
	}
	// The compute stays fine; the uplink congests 10×.
	for i := 0; i < 30; i++ {
		h.Observe(0, tileWithPhases(0.010, 0.020, 0.001))
	}
	node, score, phase := h.Worst()
	if node != 0 || score < 1.0 || phase != "uplink" {
		t.Fatalf("uplink anomaly attributed to (%d, %.3f, %q)", node, score, phase)
	}
}

func TestHealthTrackerNilAndBounds(t *testing.T) {
	var h *HealthTracker
	h.Observe(0, tileWithPhases(1, 1, 1))
	if h.Score(0) != 0 || h.Scores() != nil {
		t.Fatal("nil tracker must be inert")
	}
	if n, _, _ := h.Worst(); n != -1 {
		t.Fatal("nil tracker Worst() must be -1")
	}
	real := NewHealthTracker(1, nil)
	real.Observe(-1, tileWithPhases(1, 1, 1))
	real.Observe(5, tileWithPhases(1, 1, 1)) // out of range: ignored
	if s := real.Score(5); s != 0 {
		t.Fatal("out-of-range node must score 0")
	}
}

// TestHealthTrackerRecoveryTimeline pins the recovery semantics the
// chaos drills assert against: the slow baseline stays frozen through
// the anomaly, the score decays at the fast-EWMA rate once the node
// heals (≈ 2·0.75^t for a 3× anomaly), and after the freeze lifts the
// baseline resumes tracking genuine drift.
func TestHealthTrackerRecoveryTimeline(t *testing.T) {
	h := NewHealthTracker(1, nil)
	base := func() *TileBreakdown { return tileWithPhases(0.010, 0.002, 0.001) }

	for i := 0; i < 20; i++ {
		h.Observe(0, base())
	}
	if s := h.Score(0); s > 0.1 {
		t.Fatalf("warm baseline scores %.3f, want ~0", s)
	}

	// Anomaly: compute 3× for long enough that an unfrozen baseline
	// would have laundered it (slow α=0.02 over 40 samples).
	for i := 0; i < 40; i++ {
		h.Observe(0, tileWithPhases(0.030, 0.002, 0.001))
	}
	if s := h.Score(0); s < 1.7 {
		t.Fatalf("sustained 3x anomaly scores %.3f — baseline not frozen", s)
	}

	// Heal: the score must come down on the fast-EWMA schedule — still
	// clearly anomalous after 4 healthy tiles, below the 0.25 warn line
	// within 10.
	for i := 0; i < 4; i++ {
		h.Observe(0, base())
	}
	if s := h.Score(0); s < 0.4 || s > 0.9 {
		t.Fatalf("score after 4 healthy tiles = %.3f, want fast-α decay (~0.6)", s)
	}
	for i := 0; i < 6; i++ {
		h.Observe(0, base())
	}
	if s := h.Score(0); s > 0.25 {
		t.Fatalf("score after 10 healthy tiles = %.3f, want below warn threshold", s)
	}

	// Post-heal drift: a modest 1.3× shift is under the freeze ratio, so
	// the baseline must thaw and absorb it — the score returns to ~0
	// instead of reporting a permanent 0.3 anomaly.
	for i := 0; i < 200; i++ {
		h.Observe(0, tileWithPhases(0.013, 0.002, 0.001))
	}
	if s := h.Score(0); s > 0.1 {
		t.Fatalf("baseline failed to track post-heal drift: score %.3f", s)
	}
}

// TestSLOBreachDumpsFlightRecorder is the satellite acceptance test: a
// breach transition on a wired Central must trigger a whole-ring flight
// dump whose reason names the breaching objective and the worst-health
// node.
func TestSLOBreachDumpsFlightRecorder(t *testing.T) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	met := NewMetrics(telemetry.NewRegistry())
	flight := telemetry.NewFlightRecorder(0)
	c, _, stop := buildRuntime(t, opt, 2, 10*time.Second, func(cfg *CentralConfig) {
		cfg.Metrics, cfg.Flight = met, flight
	})
	defer stop()

	engine := NewSLOEngine(met, SLOConfig{
		TileP99:    0.001, // 1ms: any real inference breaches
		MissBudget: -1,    // latency objective only
		FastWindow: 500 * time.Millisecond,
		SlowWindow: time.Second,
	})
	c.WireSLO(engine)

	// Run real traffic so the windowed histogram fills.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 4; i++ {
		x := tensor.New(1, 3, 32, 32)
		x.RandN(rng, 1)
		if _, _, err := c.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	// Degrade node 1 after the traffic (real tiles would otherwise pull
	// its fast EWMA back to baseline) so the dump has a worst node.
	for i := 0; i < 40; i++ {
		c.health.Observe(1, tileWithPhases(0.010, 0.002, 0.001))
	}
	for i := 0; i < 30; i++ {
		c.health.Observe(1, tileWithPhases(0.080, 0.002, 0.001))
	}
	trs := engine.Tick(time.Now())
	if !engine.Breached() {
		t.Skipf("1ms objective did not breach (transitions %+v) — environment faster than the threshold", trs)
	}

	dumps := flight.Dumps()
	if len(dumps) == 0 {
		t.Fatal("SLO breach must trigger a flight dump")
	}
	d := dumps[len(dumps)-1]
	if !strings.Contains(d.Reason, "slo-breach") || !strings.Contains(d.Reason, SLOTileLatency) {
		t.Fatalf("dump reason %q must name the breaching objective", d.Reason)
	}
	if !strings.Contains(d.Reason, "worst-node=1") {
		t.Fatalf("dump reason %q must name the worst-health node", d.Reason)
	}
	if len(d.Events) == 0 {
		t.Fatal("breach dump must carry the event ring")
	}
	// The transition itself must be in the event stream.
	found := false
	for _, ev := range d.Events {
		if ev.Kind == "slo-breach" && strings.Contains(ev.Detail, SLOTileLatency) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("breach transition event missing from dump: %+v", d.Events)
	}
}

// TestCentralFeedsWindowsAndHealth: after live traffic the windowed
// instruments and the health tracker must hold data — the SLO engine
// and ops console read from them.
func TestCentralFeedsWindowsAndHealth(t *testing.T) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	met := NewMetrics(telemetry.NewRegistry())
	c, _, stop := buildRuntime(t, opt, 2, 10*time.Second, func(cfg *CentralConfig) { cfg.Metrics = met })
	defer stop()

	rng := rand.New(rand.NewSource(22))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	if _, _, err := c.Infer(x); err != nil {
		t.Fatal(err)
	}

	if n := met.TileLatencyWindow.Snapshot(time.Minute).Count; n != 4 {
		t.Fatalf("latency window holds %d tiles, want 4", n)
	}
	if got := met.TilesOKWindow.Total(time.Minute); got != 4 {
		t.Fatalf("ok window = %v, want 4", got)
	}
	if got := met.TilesMissWindow.Total(time.Minute); got != 0 {
		t.Fatalf("miss window = %v, want 0", got)
	}
	if c.Health() == nil {
		t.Fatal("a Central with Metrics must have a health tracker")
	}
	// One image through two nodes: both observed at least one tile.
	if n, _, _ := c.Health().Worst(); n < 0 {
		t.Fatal("health tracker saw no tiles")
	}
}
