package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"adcnn/internal/core"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
)

// SLOBench measures the observability stack end to end: how fast does
// the burn-rate SLO engine detect a gray-failing node, does the health
// scorer finger the right one, and does the breach clear once the node
// recovers? The experiment runs a live loopback-TCP cluster, streams
// images continuously, calibrates the latency objective from a healthy
// baseline, then makes one node serve tiles factor× slower mid-run —
// the injected equivalent of a thermally-throttled edge device — and
// records every SLO transition with timestamps.

// SLOBenchConfig parameterizes the run. The bench runs on the chaos
// drills' rig and is configured like one: Nodes, BaseDelay, the SLO
// windows, Baseline, Timeout and SlowFactor apply; the link-fault knobs
// do not.
//
// SlowFactor scales the *measured* healthy tile p99, not BaseDelay: the
// injected node's per-tile service time becomes SlowFactor×p99 while the
// objective sits at 2.5×p99, so the slow node is unambiguously bad and
// the healthy nodes unambiguously good regardless of how loaded the
// host running the experiment is.
type SLOBenchConfig = ChaosBenchConfig

// SLOTimedTransition is one engine transition stamped relative to the
// run clock.
type SLOTimedTransition struct {
	AtMs float64 `json:"at_ms"` // since run start
	telemetry.SLOTransition
}

// SLOBenchReport is the persisted artifact (BENCH_slo.json).
type SLOBenchReport struct {
	Timestamp string `json:"timestamp"`
	telemetry.Host
	Model string `json:"model"`
	Grid  string `json:"grid"`
	Nodes int    `json:"nodes"`

	BaseDelayMs  float64 `json:"base_delay_ms"`
	Factor       float64 `json:"inject_factor"`
	FastWindowMs float64 `json:"fast_window_ms"`
	SlowWindowMs float64 `json:"slow_window_ms"`

	BaselineP99Ms float64 `json:"baseline_p99_ms"` // calibrated healthy tile p99
	ThresholdMs   float64 `json:"threshold_ms"`    // latency objective derived from it

	InjectNode      int     `json:"inject_node"`
	InjectAtMs      float64 `json:"inject_at_ms"`
	InjectedDelayMs float64 `json:"injected_delay_ms"` // Factor × baseline p99
	PaceMs          float64 `json:"pace_ms"`           // per-image period after calibration

	WarnAtMs           float64   `json:"warn_at_ms"`    // first ok→warn after injection (0 = none)
	BreachAtMs         float64   `json:"breach_at_ms"`  // first →breach after injection (0 = none)
	RecoverAtMs        float64   `json:"recover_at_ms"` // first →ok after the node healed (0 = none)
	DetectionMs        float64   `json:"detection_ms"`  // breach − inject
	WithinTwoFastWin   bool      `json:"within_two_fast_windows"`
	HealthAtBreach     []float64 `json:"health_at_breach,omitempty"`
	WorstNodeAtBreach  int       `json:"worst_node_at_breach"`
	WorstIsInjected    bool      `json:"worst_is_injected"`
	WorstPhaseAtBreach string    `json:"worst_phase_at_breach,omitempty"`

	Images      int                  `json:"images"`
	FlightDumps int                  `json:"flight_dumps"`
	Transitions []SLOTimedTransition `json:"transitions"`
}

// SLOBench runs the slow-node injection experiment on the drill rig,
// with speed-only dispatch and no link probes: the SLO engine and the
// health scorer are what is being measured.
func SLOBench(cfg SLOBenchConfig) (*SLOBenchReport, error) {
	cfg.fill()
	rep := &SLOBenchReport{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		Host:         telemetry.HostInfo(),
		Model:        models.VGGSim().Name,
		Grid:         "2x2",
		Nodes:        cfg.Nodes,
		BaseDelayMs:  ms(cfg.BaseDelay),
		Factor:       cfg.SlowFactor,
		FastWindowMs: ms(cfg.FastWindow),
		SlowWindowMs: ms(cfg.SlowWindow),
		InjectNode:   cfg.Nodes - 1,
	}
	rig, err := newDrillRig(cfg, core.CentralConfig{})
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	injected := rig.nodes[rep.InjectNode].w

	// Phase 1 — healthy baseline: warm the EWMAs and the windows, then
	// calibrate everything off the observed healthy p99: the objective at
	// 2.5×p99, the injected service time at Factor×p99 (Factor=5 puts bad
	// tiles at 2× the threshold), and the paced image period at 1.5× the
	// injected delay so throughput holds through the injection.
	var cal ChaosDrillResult
	if err := rig.calibrate(&cal, 1.5*cfg.SlowFactor); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	rep.BaselineP99Ms, rep.ThresholdMs = cal.BaselineP99Ms, cal.ThresholdMs
	injectDelay := time.Duration(cfg.SlowFactor * rig.p99 * float64(time.Second))
	rep.InjectedDelayMs = ms(injectDelay)
	rep.PaceMs = ms(time.Duration(rig.pace.Load()))

	// Phase 2 — inject: the last node serves tiles at Factor× the
	// healthy p99.
	rep.InjectAtMs = rig.sinceMs(time.Now())
	injected.SetDelay(injectDelay)
	breachAt, ok := waitFor(rig.ctx, cfg.Timeout, func() (float64, bool) {
		return rig.seen(telemetry.SLOBreach, rep.InjectAtMs)
	})
	if ok {
		rep.BreachAtMs = breachAt
		rep.DetectionMs = breachAt - rep.InjectAtMs
		rep.WithinTwoFastWin = rep.DetectionMs <= 2*ms(cfg.FastWindow)
		rep.WarnAtMs, _ = rig.seen(telemetry.SLOWarn, rep.InjectAtMs)
		rep.HealthAtBreach = rig.c.Health().Scores()
		node, _, phase := rig.c.Health().Worst()
		rep.WorstNodeAtBreach = node
		rep.WorstIsInjected = node == rep.InjectNode
		rep.WorstPhaseAtBreach = phase
	}

	// Phase 3 — recover: restore the node and wait for the breach to
	// drain out of the slow window.
	healAt := rig.sinceMs(time.Now())
	injected.SetDelay(cfg.BaseDelay)
	if ok {
		rep.RecoverAtMs, _ = waitFor(rig.ctx, cfg.Timeout, func() (float64, bool) {
			return rig.seen(telemetry.SLOOK, healAt)
		})
	}

	if n := rig.failed.Load(); n > 0 {
		return nil, fmt.Errorf("experiments: %d images failed during the SLO bench", n)
	}
	rep.Images = int(rig.images.Load())
	rep.FlightDumps = len(rig.flight.Dumps())
	rig.mu.Lock()
	rep.Transitions = append(rep.Transitions, rig.transitions...)
	rig.mu.Unlock()
	return rep, nil
}

// wait sleeps d or until ctx is done.
func wait(ctx context.Context, d time.Duration) {
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
}

// waitFor polls cond (10ms cadence) until it reports found, the timeout
// elapses, or ctx is done.
func waitFor(ctx context.Context, timeout time.Duration, cond func() (float64, bool)) (float64, bool) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if v, ok := cond(); ok {
			return v, true
		}
		wait(ctx, 10*time.Millisecond)
	}
	return cond()
}

// WriteText renders the detection timeline.
func (r *SLOBenchReport) WriteText(w io.Writer) {
	fprintf(w, "SLO slow-node injection (%s %s, %d nodes, %s/%s, %d CPUs)\n",
		r.Model, r.Grid, r.Nodes, r.GOOS, r.GOARCH, r.NumCPU)
	fprintf(w, "  baseline p99 %.2fms -> objective p99 < %.2fms (windows %0.fms/%0.fms, burn warn/breach %.0f/%.0f)\n",
		r.BaselineP99Ms, r.ThresholdMs, r.FastWindowMs, r.SlowWindowMs,
		telemetry.DefaultWarnBurn, telemetry.DefaultBreachBurn)
	fprintf(w, "  injected node %d at %.0fms: %.1fms per-tile service time (%.0fx baseline p99; healthy base %.1fms, pace %.1fms/image)\n",
		r.InjectNode, r.InjectAtMs, r.InjectedDelayMs, r.Factor, r.BaseDelayMs, r.PaceMs)
	if r.BreachAtMs > 0 {
		fprintf(w, "  warn at %.0fms, breach at %.0fms -> detection latency %.0fms (within 2 fast windows: %v)\n",
			r.WarnAtMs, r.BreachAtMs, r.DetectionMs, r.WithinTwoFastWin)
		fprintf(w, "  health at breach %v -> worst node %d (%s), injected-node attribution: %v\n",
			r.HealthAtBreach, r.WorstNodeAtBreach, r.WorstPhaseAtBreach, r.WorstIsInjected)
	} else {
		fprintf(w, "  NO BREACH DETECTED within the timeout\n")
	}
	if r.RecoverAtMs > 0 {
		fprintf(w, "  recovered (ok) at %.0fms, %.0fms after the node healed\n",
			r.RecoverAtMs, r.RecoverAtMs-r.BreachAtMs)
	}
	fprintf(w, "  %d images streamed, %d flight dumps, %d SLO transitions\n",
		r.Images, r.FlightDumps, len(r.Transitions))
	for _, tr := range r.Transitions {
		fprintf(w, "    %8.0fms  %-18s %-5s -> %-6s  %s\n",
			tr.AtMs, tr.Objective, tr.FromName, tr.ToName, tr.Detail)
	}
}
