package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adcnn/internal/core"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// ChaosBench drives the live TCP runtime through a scripted fault
// schedule and asserts, per drill, that the observability stack saw
// what actually happened: the link profiler's estimates track an
// injected bandwidth collapse, the SLO engine breaches and the flight
// dump blames the faulted node, and everything recovers after the
// heal. Each drill runs on a fresh cluster — real TCP listeners,
// one NodeServer per node — so crashing a node is closing its socket,
// not flipping a flag.

// ChaosBenchConfig parameterizes the schedule; zero values take
// defaults sized for a ~10s-per-drill run. The healthy traffic before
// calibration lasts 1.5× SlowWindow.
type ChaosBenchConfig struct {
	BaseDelay  time.Duration // every node's healthy per-tile hold (default 2ms)
	FastWindow time.Duration // SLO fast burn window (default 500ms)
	SlowWindow time.Duration // SLO slow burn window (default 2s)
	Timeout    time.Duration // per-assertion wait bound (default 6×slow)
	Drills     []string      // subset of bandwidth|crash|skew|slownode (default all)
}

// The drills' fixed fault sizes.
//
// chaosSlowFactor scales the *measured* healthy tile p99, not
// BaseDelay: the slow node's per-tile hold becomes
// chaosSlowFactor×p99 while the objective sits at 2.5×p99, so the slow
// node is unambiguously bad and the healthy nodes unambiguously good
// however loaded the host is.
const (
	chaosNodes        = 4                     // cluster size
	chaosThrottleRate = 96 << 10              // bandwidth drill cap, bytes/sec
	chaosSlowFactor   = 5                     // slow-node drill hold, ×(baseline p99)
	chaosSkew         = 30 * time.Millisecond // clock-skew drill injection
)

func (c *ChaosBenchConfig) fill() {
	if c.BaseDelay <= 0 {
		c.BaseDelay = 2 * time.Millisecond
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 500 * time.Millisecond
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 6 * c.SlowWindow
	}
}

// chaosDrill is one row of the schedule: the traffic pace after
// calibration in multiples of the healthy tile p99 (0 = closed loop)
// and the fault script.
type chaosDrill struct {
	name string
	pace float64
	run  func(*drillRig, *ChaosDrillResult)
}

// chaosDrills is the schedule, in run order. The link faults run on
// closed-loop traffic, which keeps the link estimates fed. The slow
// node is a gray failure the SLO engine and the health scorer must
// catch on their own, paced at 1.5× the injected hold: a fault
// that slowed the image rate would skew the good/bad tile mix inside
// the burn windows and stretch detection for reasons that have nothing
// to do with the engine.
var chaosDrills = []chaosDrill{
	{"bandwidth", 0, drillBandwidth},
	{"crash", 0, drillCrash},
	{"skew", 0, drillSkew},
	{"slownode", 1.5 * chaosSlowFactor, drillSlowNode},
}

// ChaosCheck is one drill assertion: what was checked, whether it
// held, and the measured detail behind the verdict.
type ChaosCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// ChaosDrillResult is one drill's outcome; unused fields stay zero.
type ChaosDrillResult struct {
	Drill string `json:"drill"`
	Pass  bool   `json:"pass"`

	BaselineP99Ms float64 `json:"baseline_p99_ms"`
	ThresholdMs   float64 `json:"threshold_ms"`
	FaultAtMs     float64 `json:"fault_at_ms"`
	HealAtMs      float64 `json:"heal_at_ms"`
	BreachAtMs    float64 `json:"breach_at_ms,omitempty"`
	RecoverAtMs   float64 `json:"recover_at_ms,omitempty"`

	LinkUpBps       float64 `json:"link_up_bps,omitempty"`       // collapsed uplink estimate under throttle
	LinkDownBps     float64 `json:"link_down_bps,omitempty"`     // converged downlink estimate under throttle
	LinkRecoveryBps float64 `json:"link_recovery_bps,omitempty"` // uplink estimate after the heal
	OffsetNs        int64   `json:"offset_ns,omitempty"`         // converged estimate under skew
	Epochs          int     `json:"epochs,omitempty"`
	DumpReason      string  `json:"dump_reason,omitempty"`
	FlightDumps     int     `json:"flight_dumps"`

	// The slow-node drill's detection timeline: the first ok→warn after
	// the fault, breach − fault, whether that is within two fast windows,
	// and every node's health score when the breach fired.
	WarnAtMs         float64   `json:"warn_at_ms,omitempty"`
	DetectionMs      float64   `json:"detection_ms,omitempty"`
	WithinTwoFastWin bool      `json:"within_two_fast_windows"`
	HealthAtBreach   []float64 `json:"health_at_breach,omitempty"`

	Images       int64                `json:"images"`
	FailedImages int64                `json:"failed_images"`
	DurationMs   float64              `json:"duration_ms"`
	Checks       []ChaosCheck         `json:"checks"`
	Transitions  []SLOTimedTransition `json:"transitions,omitempty"`
}

func (r *ChaosDrillResult) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, ChaosCheck{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Pass = false
	}
}

// ChaosReport is the persisted artifact (BENCH_chaos.json).
type ChaosReport struct {
	Timestamp string `json:"timestamp"`
	telemetry.Host
	Model string `json:"model"`
	Grid  string `json:"grid"`
	Nodes int    `json:"nodes"`

	FastWindowMs    float64 `json:"fast_window_ms"`
	SlowWindowMs    float64 `json:"slow_window_ms"`
	ThrottleRateBps int64   `json:"throttle_rate_bps"`

	Pass   bool               `json:"pass"`
	Drills []ChaosDrillResult `json:"drills"`
}

// ChaosBench runs the drill schedule. The returned error covers
// infrastructure failures only; assertion failures land in the report
// with Pass=false.
func ChaosBench(cfg ChaosBenchConfig) (*ChaosReport, error) {
	cfg.fill()
	rep := &ChaosReport{
		Timestamp:       time.Now().UTC().Format(time.RFC3339),
		Host:            telemetry.HostInfo(),
		Model:           models.VGGSim().Name,
		Grid:            "2x2",
		Nodes:           chaosNodes,
		FastWindowMs:    ms(cfg.FastWindow),
		SlowWindowMs:    ms(cfg.SlowWindow),
		ThrottleRateBps: chaosThrottleRate,
		Pass:            true,
	}
	table := chaosDrills
	var drills []chaosDrill
	for _, name := range cfg.Drills {
		i := slices.IndexFunc(table, func(d chaosDrill) bool { return d.name == name })
		if i < 0 {
			return nil, fmt.Errorf("experiments: unknown chaos drill %q", name)
		}
		drills = append(drills, table[i])
	}
	if len(cfg.Drills) == 0 {
		drills = table
	}
	for _, d := range drills {
		res, err := runChaosDrill(cfg, d)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos drill %s: %w", d.name, err)
		}
		rep.Drills = append(rep.Drills, *res)
		rep.Pass = rep.Pass && res.Pass
	}
	return rep, nil
}

// runChaosDrill builds a fresh cluster, calibrates the SLO objective
// off its healthy baseline, runs the drill, and tears everything down.
func runChaosDrill(cfg ChaosBenchConfig, d chaosDrill) (*ChaosDrillResult, error) {
	cl, err := newDrillRig(cfg)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	res := &ChaosDrillResult{Drill: d.name, Pass: true}
	start := time.Now()
	if err := cl.calibrate(res, d.pace); err != nil {
		return nil, err
	}
	d.run(cl, res)
	res.Images = cl.images.Load()
	res.FailedImages = cl.failed.Load()
	res.FlightDumps = len(cl.flight.Dumps())
	res.DurationMs = ms(time.Since(start))
	cl.mu.Lock()
	res.Transitions = append([]SLOTimedTransition(nil), cl.transitions...)
	cl.mu.Unlock()
	return res, nil
}

// drillRig is the live runtime a fault drill runs on: the fixture's
// pool, one Central dialed into it, continuous traffic, and (after
// calibrate) an SLO engine whose latency objective is derived from the
// healthy baseline.
type drillRig struct {
	cfg    ChaosBenchConfig
	ctx    context.Context
	cancel context.CancelFunc

	c        *core.Central
	nodes    []*liveNode
	stopLive func()
	met      *core.Metrics
	flight   *telemetry.FlightRecorder
	engine   *telemetry.SLOEngine

	start  time.Time
	images atomic.Int64
	failed atomic.Int64
	done   chan struct{}
	// pace, once set, caps the image rate at one per period; zero is
	// closed-loop traffic.
	pace atomic.Int64

	mu          sync.Mutex
	transitions []SLOTimedTransition

	p99 float64 // calibrated healthy tile p99, seconds
}

// newDrillRig boots the rig: a default Central with its own metrics and
// flight recorder.
func newDrillRig(cfg ChaosBenchConfig) (*drillRig, error) {
	met := core.NewMetrics(telemetry.NewRegistry(), 0)
	// A deep ring: closed-loop traffic emits thousands of tile events
	// per second, and the crash drill inspects markers recorded a
	// reconnect-backoff (~1-2s) before the check runs.
	flight := telemetry.NewFlightRecorder(1 << 15)
	// One tile per node: a faulted node's slowdown lands on exactly its
	// share of tiles, so the bad fraction is 1/Nodes by design.
	c, live, stop, err := liveCentral(models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, chaosNodes,
		cfg.BaseDelay, core.CentralConfig{Metrics: met, Flight: flight})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	cl := &drillRig{
		cfg: cfg, ctx: ctx, cancel: cancel,
		c: c, nodes: live.nodes, stopLive: stop, met: met, flight: flight,
		start: time.Now(), done: make(chan struct{}),
	}

	// Traffic until the drill ends. Infer failures are counted, not
	// fatal: the crash drill asserts the count stays zero, i.e.
	// redispatch carried every stranded tile.
	go func() {
		defer close(cl.done)
		x := tensor.New(1, 3, 32, 32)
		x.RandN(rand.New(rand.NewSource(7)), 1)
		for ctx.Err() == nil {
			t0 := time.Now()
			if _, _, err := c.Infer(x); err != nil {
				if ctx.Err() != nil {
					return
				}
				cl.failed.Add(1)
				wait(ctx, 5*time.Millisecond)
				continue
			}
			cl.images.Add(1)
			if d := time.Duration(cl.pace.Load()) - time.Since(t0); d > 0 {
				wait(ctx, d)
			}
		}
	}()
	return cl, nil
}

// calibrate waits out the healthy baseline, derives the latency
// objective (2.5× the observed tile p99), and starts the SLO engine.
// paceP99, when >0, paces the traffic from here on at one image per
// paceP99 × p99.
func (cl *drillRig) calibrate(res *ChaosDrillResult, paceP99 float64) error {
	cfg := cl.cfg
	before := cl.met.TileRoundTrip.Snapshot()
	wait(cl.ctx, cfg.SlowWindow+cfg.SlowWindow/2)
	after := cl.met.TileRoundTrip.Snapshot()
	p99 := telemetry.QuantileFromBuckets(after.Upper,
		telemetry.DeltaBuckets(after.Cumulative(), before.Cumulative()), 0.99)
	if p99 <= 0 || p99 != p99 {
		return fmt.Errorf("no baseline traffic (p99=%v)", p99)
	}
	cl.p99 = p99
	cl.pace.Store(int64(paceP99 * p99 * float64(time.Second)))
	threshold := 2.5 * p99
	res.BaselineP99Ms = p99 * 1e3
	res.ThresholdMs = threshold * 1e3

	engine := core.NewSLOEngine(cl.met, core.SLOConfig{
		TileP99:    threshold,
		MissBudget: -1, // latency objective only
		FastWindow: cfg.FastWindow,
		SlowWindow: cfg.SlowWindow,
	})
	cl.c.WireSLO(engine)
	engine.Subscribe(func(tr telemetry.SLOTransition) {
		cl.mu.Lock()
		cl.transitions = append(cl.transitions, SLOTimedTransition{AtMs: cl.sinceMs(tr.At), SLOTransition: tr})
		cl.mu.Unlock()
	})
	go engine.Run(cl.ctx, cfg.FastWindow/10)
	cl.engine = engine
	// Let the engine judge the healthy state — a full slow window of the
	// traffic it will see during the drill — before any fault lands.
	wait(cl.ctx, cfg.SlowWindow)
	return nil
}

func (cl *drillRig) sinceMs(t time.Time) float64 { return ms(t.Sub(cl.start)) }

// SLOTimedTransition is one engine transition stamped relative to the
// drill's clock.
type SLOTimedTransition struct {
	AtMs float64 `json:"at_ms"` // since the rig started
	telemetry.SLOTransition
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

// seen reports the first transition into state to at or after afterMs.
func (cl *drillRig) seen(to telemetry.SLOState, afterMs float64) (float64, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, tr := range cl.transitions {
		if tr.To == to && tr.AtMs >= afterMs {
			return tr.AtMs, true
		}
	}
	return 0, false
}

// session returns node k's debug snapshot (sessions start with the
// Central, so the row always exists).
func (cl *drillRig) session(k int) core.SessionDebug { return cl.c.DebugSessions()[k] }

// checkBlame waits for the breach's flight dump and asserts its reason
// names the faulted node as the worst-health one.
func (cl *drillRig) checkBlame(res *ChaosDrillResult, target *liveNode) {
	wantBlame := fmt.Sprintf("worst-node=%d", target.idx)
	_, blamed := waitFor(cl.ctx, cl.cfg.Timeout, func() (float64, bool) {
		for _, d := range cl.flight.Dumps() {
			if strings.Contains(d.Reason, "slo-breach") && strings.Contains(d.Reason, wantBlame) {
				res.DumpReason = d.Reason
				return 1, true
			}
		}
		return 0, false
	})
	res.check("flight-blame", blamed, "breach dump blames the faulted node: %q", res.DumpReason)
}

// settleOK waits for the SLO engine to leave the breach state.
func (cl *drillRig) settleOK() bool {
	_, ok := waitFor(cl.ctx, cl.cfg.Timeout, func() (float64, bool) {
		if cl.engine.Breached() {
			return 0, false
		}
		return 1, true
	})
	return ok
}

func (cl *drillRig) stop() {
	cl.cancel()
	<-cl.done
	cl.stopLive()
}

// drillBandwidth collapses the last node's link to chaosThrottleRate and
// walks the observability chain in two acts. Act 1 is the collapse:
// the collapsed link still delivers within T_L, so Algorithm 2 keeps
// crediting the node and every image keeps routing a tile over it; the
// profiler's estimates converge onto the throttle rate, the SLO
// breaches, and the flight dump blames the node. Act 2 heals the link:
// the estimates recover and the SLO settles.
func drillBandwidth(cl *drillRig, res *ChaosDrillResult) {
	cfg := cl.cfg
	target := cl.nodes[len(cl.nodes)-1]
	rate := float64(chaosThrottleRate)

	// The collapse is judged against a converged healthy estimate, not
	// whatever the estimator reads at one instant.
	healthyUp, _ := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		up := cl.session(target.idx).UplinkBps
		return up, up > 0
	})

	// Act 1: the collapse.
	res.FaultAtMs = cl.sinceMs(time.Now())
	target.rate.Store(chaosThrottleRate)

	// The downlink carries the 3.3×-larger result tensors and the node
	// itself paces the throttled writes, so it is the direction where
	// the estimate must land inside the 25% band; the uplink estimate
	// is judged on detecting the collapse (order of magnitude down from
	// healthy), since the throttle makes the two directions' delays
	// asymmetric, which biases the RTT-midpoint clock offset its one-way
	// delays are mapped with.
	est, ok := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		if s := cl.session(target.idx); s.DownlinkBps > 0 && math.Abs(s.DownlinkBps-rate)/rate <= 0.25 {
			return s.DownlinkBps, true
		}
		return 0, false
	})
	res.LinkDownBps = est
	res.check("link-estimate", ok,
		"downlink estimate %.0f B/s within 25%% of the %.0f B/s throttle", est, rate)
	res.LinkUpBps, ok = waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		up := cl.session(target.idx).UplinkBps
		return up, healthyUp > 0 && up > 0 && up < healthyUp/4
	})
	res.check("link-collapse", ok,
		"uplink estimate fell %.0f -> %.0f B/s under the throttle", healthyUp, res.LinkUpBps)

	breachAt, breached := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		return cl.seen(telemetry.SLOBreach, res.FaultAtMs)
	})
	res.BreachAtMs = breachAt
	res.check("slo-breach", breached, "SLO breached %.0fms after the collapse", breachAt-res.FaultAtMs)
	if breached {
		cl.checkBlame(res, target)
	}

	// Act 2: the heal.
	res.HealAtMs = cl.sinceMs(time.Now())
	target.rate.Store(0)
	rec, ok := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		if s := cl.session(target.idx); s.UplinkBps > 3*rate && s.DownlinkBps > 3*rate {
			return s.UplinkBps, true
		}
		return 0, false
	})
	res.LinkRecoveryBps = rec
	res.check("link-recovery", ok, "post-heal uplink estimate %.0f B/s (>3x the throttle)", rec)
	res.check("slo-settled", cl.settleOK(), "SLO engine settled after the heal")
}

// drillCrash kills the last node's listener and connections mid-run,
// restarts it on the same address, and asserts the session failed over
// (redispatch, zero failed images) and reconnected (epoch bump).
func drillCrash(cl *drillRig, res *ChaosDrillResult) {
	cfg := cl.cfg
	target := cl.nodes[len(cl.nodes)-1]
	res.FaultAtMs = cl.sinceMs(time.Now())
	target.crash()

	// Let traffic ride the degraded cluster: stranded tiles redispatch,
	// new allocations avoid the dead node.
	wait(cl.ctx, 400*time.Millisecond)
	res.HealAtMs = cl.sinceMs(time.Now())
	err := target.restart()
	res.check("restart", err == nil, "listener re-bound on %s (%v)", target.addr, err)

	var s core.SessionDebug
	_, ok := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		if got := cl.session(target.idx); got.Alive && got.Epochs >= 2 {
			s = got
			return float64(got.Epochs), true
		}
		return 0, false
	})
	res.Epochs = s.Epochs
	res.check("reconnect", ok, "session alive again, epoch %d", s.Epochs)

	var down, re bool
	for _, ev := range cl.flight.Events() {
		switch ev.Kind {
		case "session-down":
			down = down || ev.Node == target.idx
		case "session-reconnect":
			re = re || ev.Node == target.idx
		}
	}
	// The event ring churns at thousands of tile events per second, so
	// the down marker may already be evicted by the time the reconnect
	// settles; the failover dump the transition triggered is durable
	// evidence of the same fact.
	if !down {
		for _, d := range cl.flight.Dumps() {
			if d.Reason == "session-failover" {
				down = true
				break
			}
		}
	}
	res.check("flight-events", down && re,
		"flight holds session-down=%v (event or failover dump) session-reconnect=%v for node %d", down, re, target.idx)
	res.check("no-failed-images", cl.failed.Load() == 0,
		"%d images failed across the crash (want 0: redispatch covers stranded tiles)", cl.failed.Load())
	res.check("slo-settled", cl.settleOK(), "SLO engine settled after the failover")
}

// drillSkew shifts the last node's monotonic clock and asserts the
// offset estimator absorbs it in both directions without an
// SLO breach — skew must corrupt the phase decomposition only until
// the estimator catches up, never the Central-side latency SLO.
func drillSkew(cl *drillRig, res *ChaosDrillResult) {
	cfg := cl.cfg
	target := cl.nodes[len(cl.nodes)-1]
	skew := float64(chaosSkew.Nanoseconds())

	_, warm := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		if s := cl.session(target.idx); s.OffsetSamples >= 5 {
			return float64(s.OffsetSamples), true
		}
		return 0, false
	})
	res.check("offset-warmup", warm, "offset estimator warmed on tile exchanges")

	res.FaultAtMs = cl.sinceMs(time.Now())
	target.skew.Store(int64(chaosSkew))
	// The node's stamps now read +skew, so the mapping back onto the
	// Central's clock must converge to −skew.
	off, ok := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		off := float64(cl.session(target.idx).ClockOffsetNs)
		return off, math.Abs(off+skew) <= 0.3*skew
	})
	res.OffsetNs = int64(off)
	res.check("offset-converges", ok,
		"offset estimate %.2fms after injecting +%.0fms skew (want ~-%.0fms)",
		off/1e6, skew/1e6, skew/1e6)

	res.HealAtMs = cl.sinceMs(time.Now())
	target.skew.Store(0)
	back, ok := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		off := float64(cl.session(target.idx).ClockOffsetNs)
		return off, math.Abs(off) <= 0.3*skew
	})
	res.check("offset-recovers", ok, "offset estimate back to %.2fms after removing the skew", back/1e6)

	_, breachSeen := cl.seen(telemetry.SLOBreach, res.FaultAtMs)
	res.check("no-breach", !breachSeen && !cl.engine.Breached(),
		"clock skew must not trip the Central-clock latency SLO")
}

// drillSlowNode is the gray-failure schedule: the last node holds each
// tile for chaosSlowFactor× the healthy tile p99, the SLO must breach
// with the health tracker blaming that node's compute phase, and
// recover once it heals. How fast the breach fired is recorded, not
// checked.
func drillSlowNode(cl *drillRig, res *ChaosDrillResult) {
	cfg := cl.cfg
	target := cl.nodes[len(cl.nodes)-1]
	inject := time.Duration(chaosSlowFactor * cl.p99 * float64(time.Second))
	res.FaultAtMs = cl.sinceMs(time.Now())
	target.hold.Store(int64(inject))

	breachAt, breached := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		return cl.seen(telemetry.SLOBreach, res.FaultAtMs)
	})
	res.BreachAtMs = breachAt
	res.check("slo-breach", breached, "SLO breached %.0fms after the slowdown", breachAt-res.FaultAtMs)
	if breached {
		res.HealthAtBreach = cl.c.Health().Scores()
		res.DetectionMs = breachAt - res.FaultAtMs
		res.WithinTwoFastWin = res.DetectionMs <= 2*ms(cfg.FastWindow)
		res.WarnAtMs, _ = cl.seen(telemetry.SLOWarn, res.FaultAtMs)
		node, score, phase := cl.c.Health().Worst()
		want := core.PhaseNames[core.PhaseCompute]
		res.check("health-blame", node == target.idx && phase == want,
			"health tracker blames node %d (score %.2f, phase %s), want node %d phase %s",
			node, score, phase, target.idx, want)
		cl.checkBlame(res, target)
	}

	res.HealAtMs = cl.sinceMs(time.Now())
	target.hold.Store(int64(cfg.BaseDelay))
	if breached {
		at, ok := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
			return cl.seen(telemetry.SLOOK, res.HealAtMs)
		})
		res.RecoverAtMs = at
		res.check("slo-recovery", ok, "SLO back to ok %.0fms after the heal", at-res.HealAtMs)
	}
}

// WriteText renders the drill-by-drill verdicts.
func (r *ChaosReport) WriteText(w io.Writer) {
	fprintf(w, "Chaos drill schedule (%s %s, %d nodes, windows %.0fms/%.0fms, %d CPUs)\n",
		r.Model, r.Grid, r.Nodes, r.FastWindowMs, r.SlowWindowMs, r.NumCPU)
	for _, d := range r.Drills {
		verdict := "PASS"
		if !d.Pass {
			verdict = "FAIL"
		}
		fprintf(w, "  [%s] %-9s p99 %.2fms -> objective %.2fms, %d images (%d failed), %.1fs\n",
			verdict, d.Drill, d.BaselineP99Ms, d.ThresholdMs, d.Images, d.FailedImages, d.DurationMs/1e3)
		if d.DetectionMs > 0 {
			fprintf(w, "      warn at %.0fms, detection %.0fms (within 2 fast windows: %v), health at breach %.2f\n",
				d.WarnAtMs, d.DetectionMs, d.WithinTwoFastWin, d.HealthAtBreach)
		}
		for _, c := range d.Checks {
			mark := "ok  "
			if !c.OK {
				mark = "FAIL"
			}
			fprintf(w, "      %s %-18s %s\n", mark, c.Name, c.Detail)
		}
	}
	if r.Pass {
		fprintf(w, "  all drills passed\n")
	} else {
		fprintf(w, "  DRILL FAILURES — see above\n")
	}
}
