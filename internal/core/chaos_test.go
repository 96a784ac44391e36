package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// The fault scenarios' fixed sizes. The SLO engine is ticked once per
// image on a virtual clock, chaosTick apart, so a window is a number of
// images: the fast window 10, the slow window 40. The slow node's hold
// scales the measured healthy tile p99, not a constant, and the latency
// objective sits at 2.5× that p99: the slow node is unambiguously bad
// and the healthy nodes unambiguously good however loaded the host is.
//
// Every node holds each tile chaosBaseHold, so most healthy round trips
// are mostly sleep and the objective sits milliseconds above them: a
// busy host's scheduling noise, which the image clock packs into few
// images, seldom reaches it. The engine judges tiles through the
// histogram's buckets, so a tile counts as fully bad only past the first
// bucket bound above the objective: a throttled tile (~75 ms) clears it
// for any p99 up to 20 ms and still breaches for one up to ~30 ms.
const (
	chaosNodes      = 4 // a 2×2 grid: one tile per node and image
	chaosTick       = 50 * time.Millisecond
	chaosFast       = 500 * time.Millisecond
	chaosSlow       = 2 * time.Second
	chaosTL         = 500 * time.Millisecond
	chaosRate       = 64 << 10 // bandwidth collapse, payload bytes/sec
	chaosSkew       = 30 * time.Millisecond
	chaosSlowFactor = 5 // slow node's hold, × the healthy tile p99
	chaosBaseHold   = 2 * time.Millisecond
	chaosTarget     = chaosNodes - 1
)

// chaosNode is one Conv node of the scenario cluster: a worker whose
// front ends in a hold layer (its compute fault) and the faults every
// connection it serves reads live, zero being healthy. crash makes the
// node die on the next task it receives; after a crash the node stays
// down until restart lets one redial through.
type chaosNode struct {
	w       *Worker
	hold    *holdLayer
	rate    atomic.Int64 // payload bytes/sec, both directions
	skew    atomic.Int64 // ns added to every timing stamp sent
	crash   atomic.Bool
	restart chan struct{}
	wg      *sync.WaitGroup
}

// connect starts a session of the node's worker behind a fresh pipe and
// returns the Central's end.
func (n *chaosNode) connect() Conn {
	a, b := Pipe()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = n.w.Serve(context.Background(), faultConn{Conn: b, n: n})
	}()
	return a
}

// dial is the node's reconnect Dialer: it blocks until restart.
func (n *chaosNode) dial(ctx context.Context) (Conn, error) {
	select {
	case <-n.restart:
		return n.connect(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// throttle holds a transfer of size payload bytes for as long as the
// node's rate takes to carry them.
func (n *chaosNode) throttle(size int) {
	if r := n.rate.Load(); r > 0 {
		time.Sleep(time.Duration(float64(size) / float64(r) * float64(time.Second)))
	}
}

// faultConn is a Conv node's end of a connection, carrying the node's
// link, clock and crash faults. A task's payload is throttled before the
// worker stamps its arrival and a result's after the worker stamps its
// departure, so a collapsed link lands in the uplink and downlink phases
// and in the exchange's round trip. A result's six timing stamps move
// by the node's skew, on a copy, since the worker reuses its record.
type faultConn struct {
	Conn
	n *chaosNode
}

func (c faultConn) Recv() (*Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	if c.n.crash.CompareAndSwap(true, false) {
		m.ReleasePayload()
		c.Conn.Close()
		return nil, io.ErrClosedPipe
	}
	c.n.throttle(len(m.Payload))
	return m, nil
}

func (c faultConn) Send(m *Message) error {
	c.n.throttle(len(m.Payload))
	if d := c.n.skew.Load(); d != 0 && m.Timing != nil {
		tm := *m.Timing
		for _, ns := range []*int64{&tm.RecvNs, &tm.DecodeNs, &tm.ComputeStartNs, &tm.ComputeEndNs, &tm.EncodeNs, &tm.SendNs} {
			*ns += d
		}
		cp := *m
		cp.Timing = &tm
		m = &cp
	}
	return c.Conn.Send(m)
}

// TestFaultConnShiftsEveryStamp: a non-zero skew moves each of the six
// timing stamps of a result by exactly the skew and nothing else, on a
// copy, and a zero skew passes the frame through untouched.
func TestFaultConnShiftsEveryStamp(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	n := &chaosNode{}
	fc := faultConn{Conn: a, n: n}
	tm := ConvTiming{RecvNs: 1, DecodeNs: 2, ComputeStartNs: 3, ComputeEndNs: 4, EncodeNs: 5, SendNs: 6}
	sent := Message{Kind: KindResult, ImageID: 7, TileID: 3, Quantized: true,
		TraceID: 11, SpanID: 12, Timing: &tm, Payload: []byte{1, 2, 3, 4}}
	orig := tm
	for _, d := range []int64{int64(chaosSkew), 0} {
		n.skew.Store(d)
		if err := fc.Send(&sent); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		want := ConvTiming{RecvNs: 1 + d, DecodeNs: 2 + d, ComputeStartNs: 3 + d, ComputeEndNs: 4 + d, EncodeNs: 5 + d, SendNs: 6 + d}
		if got.Timing == nil || *got.Timing != want {
			t.Fatalf("skew %d: stamps %+v, want %+v", d, got.Timing, want)
		}
		if got.Kind != sent.Kind || got.ImageID != sent.ImageID || got.TileID != sent.TileID ||
			got.Compressed != sent.Compressed || got.Quantized != sent.Quantized ||
			got.TraceID != sent.TraceID || got.SpanID != sent.SpanID ||
			!bytes.Equal(got.Payload, sent.Payload) {
			t.Fatalf("skew %d changed more than the stamps: %+v", d, *got)
		}
		if tm != orig {
			t.Fatalf("skew %d wrote the sender's timing record: %+v", d, tm)
		}
	}
}

// chaosRig is the scenario cluster: a metered Central with a flight
// recorder, over pipes to chaosNodes nodes serving a 2×2 VGG-sim, and
// the SLO engine calibrate wires, ticked on the image clock.
type chaosRig struct {
	c      *Central
	nodes  []*chaosNode
	met    *Metrics
	flight *telemetry.FlightRecorder
	engine *telemetry.SLOEngine
	x      *tensor.Tensor
	now    time.Time // the virtual clock
	p99    float64   // calibrated healthy tile p99, seconds
}

func newChaosRig(t *testing.T) *chaosRig {
	m, err := models.Build(models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	r := &chaosRig{
		met:    NewMetrics(telemetry.NewRegistry()),
		flight: telemetry.NewFlightRecorder(0),
		x:      tensor.New(1, 3, 32, 32),
		now:    time.Unix(0, 0),
	}
	r.x.RandN(rand.New(rand.NewSource(7)), 1)
	var wg sync.WaitGroup
	cfg := CentralConfig{Model: m, TL: chaosTL, Gamma: 0.9, Metrics: r.met, Flight: r.flight}
	for k := 0; k < chaosNodes; k++ {
		n := &chaosNode{restart: make(chan struct{}, 1), wg: &wg}
		n.w, n.hold = slowWorker(k+1, m, chaosBaseHold)
		r.nodes = append(r.nodes, n)
		cfg.Conns = append(cfg.Conns, n.connect())
		cfg.Dialers = append(cfg.Dialers, n.dial)
	}
	if r.c, err = cfg.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.c.Shutdown(); wg.Wait() })
	return r
}

// image runs one image, which must succeed, and moves the virtual clock
// on by one tick; it returns the image's stats and the transitions the
// engine's tick fired.
func (r *chaosRig) image(t *testing.T) (InferStats, []telemetry.SLOTransition) {
	t.Helper()
	_, st, err := r.c.Infer(r.x)
	if err != nil {
		t.Fatalf("image failed: %v", err)
	}
	r.now = r.now.Add(chaosTick)
	return st, r.engine.Tick(r.now)
}

// run runs n images and returns the transitions their ticks fired.
func (r *chaosRig) run(t *testing.T, n int) []telemetry.SLOTransition {
	t.Helper()
	var trs []telemetry.SLOTransition
	for i := 0; i < n; i++ {
		_, fired := r.image(t)
		trs = append(trs, fired...)
	}
	return trs
}

// calibrate derives the latency objective from 1.5 slow windows of
// healthy images (2.5× their tile p99), wires the engine, and lets it
// judge one healthy slow window before any fault lands.
func (r *chaosRig) calibrate(t *testing.T) {
	t.Helper()
	before := r.met.TileRoundTrip.Snapshot()
	r.run(t, int(3*chaosSlow/2/chaosTick))
	after := r.met.TileRoundTrip.Snapshot()
	r.p99 = telemetry.QuantileFromBuckets(after.Upper,
		telemetry.DeltaBuckets(after.Cumulative(), before.Cumulative()), 0.99)
	if !(r.p99 > 0) {
		t.Fatalf("no healthy baseline: tile p99 %v", r.p99)
	}
	r.engine = NewSLOEngine(r.met, SLOConfig{
		TileP99:    2.5 * r.p99,
		MissBudget: -1, // latency objective only
		FastWindow: chaosFast,
		SlowWindow: chaosSlow,
	})
	r.c.WireSLO(r.engine)
	if trs := r.run(t, int(chaosSlow/chaosTick)); r.engine.Breached() {
		t.Fatalf("healthy cluster breached: %v", trs)
	}
	t.Logf("healthy tile p99 %.2fms, objective %.2fms", r.p99*1e3, 2.5*r.p99*1e3)
}

// entered reports whether any of trs moved into state to.
func entered(trs []telemetry.SLOTransition, to telemetry.SLOState) bool {
	return slices.ContainsFunc(trs, func(tr telemetry.SLOTransition) bool { return tr.To == to })
}

// blamed reports whether a breach dump taken since names node as the
// worst and phase as what drives it, and the reasons of every dump taken
// since for the failure message. The rig's scenarios share one recorder,
// so a dump an earlier scenario left must not count.
func (r *chaosRig) blamed(node, phase int, since time.Time) (bool, []string) {
	wantNode := fmt.Sprintf(" worst-node=%d ", node)
	wantPhase := fmt.Sprintf(" phase=%s ", PhaseNames[phase])
	var reasons []string
	for _, d := range r.flight.Dumps() {
		if !d.At.Before(since) {
			reasons = append(reasons, d.Reason)
		}
	}
	return slices.ContainsFunc(reasons, func(reason string) bool {
		return strings.HasPrefix(reason, "slo-breach") &&
			strings.Contains(reason+" ", wantNode) && strings.Contains(reason+" ", wantPhase)
	}), reasons
}

func (r *chaosRig) session(k int) SessionDebug { return r.c.DebugSessions()[k] }

// TestChaosScenarios drives the live runtime through four fault
// schedules in turn, each a fixed number of images on the image clock,
// and checks that the runtime and its observability saw what happened
// (paper §6.1: a straggler's tiles still settle, a dead node's work goes
// to the survivors, and a revived node takes work again). Nothing sleeps
// but the injected faults, the base hold, the crashed node's one tile
// waiting out T_L, and the reconnect backoff; no check polls the wall
// clock.
func TestChaosScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("live fault scenarios")
	}
	r := newChaosRig(t)
	r.calibrate(t)
	target := r.nodes[chaosTarget]
	fastImages := int(chaosFast / chaosTick)
	slowImages := int(chaosSlow / chaosTick)

	// A gray failure: the node keeps answering, 5× the healthy p99 late.
	// One tile in four is bad, so the slow window's burn crosses the
	// breach line 13 images in; the breach must come within two fast
	// windows, blame the node's compute, and clear after the heal.
	t.Run("slownode", func(t *testing.T) {
		since := time.Now()
		target.hold.d.Store(int64(chaosSlowFactor * r.p99 * float64(time.Second)))
		breachAt := 0
		var breach InferStats
		for i := 1; i <= 2*fastImages && breachAt == 0; i++ {
			if st, fired := r.image(t); entered(fired, telemetry.SLOBreach) {
				breachAt, breach = i, st
			}
		}
		if breachAt == 0 {
			t.Fatalf("no breach within two fast windows (%d images) of the slowdown", 2*fastImages)
		}
		node, phase, excess := breach.Breakdown.Critical()
		t.Logf("breach %d images (%v virtual) after the slowdown; its critical path: node %d phase %d excess %v",
			breachAt, time.Duration(breachAt)*chaosTick, node, phase, excess)
		if node != chaosTarget || phase != PhaseCompute {
			t.Errorf("the breach image's critical path is node %d phase %d, want node %d phase %d (compute)", node, phase, chaosTarget, PhaseCompute)
		}
		if ok, reasons := r.blamed(chaosTarget, PhaseCompute, since); !ok {
			t.Errorf("no breach dump since the slowdown names worst-node=%d phase=compute: %q", chaosTarget, reasons)
		}
		target.hold.d.Store(int64(chaosBaseHold))
		if trs := r.run(t, 2*slowImages); !entered(trs, telemetry.SLOOK) || r.engine.Breached() {
			t.Errorf("SLO not back to ok %d images after the heal: %v", 2*slowImages, trs)
		}
	})

	// A collapsed link that still delivers within T_L: the SLO breaches,
	// the breach image's critical path and the breach dump name the
	// node's uplink, the node's RTT rises tenfold, and all of it
	// recovers after the heal.
	t.Run("bandwidth", func(t *testing.T) {
		healthyRTT := r.session(chaosTarget).RTTNs
		if healthyRTT <= 0 {
			t.Fatalf("no healthy RTT: %+v", r.session(chaosTarget))
		}
		since := time.Now()
		target.rate.Store(chaosRate)
		var trs []telemetry.SLOTransition
		var breach *InferStats
		for i := 0; i < 2*fastImages; i++ {
			st, fired := r.image(t)
			if breach == nil && entered(fired, telemetry.SLOBreach) {
				breach = &st
			}
			trs = append(trs, fired...)
		}
		throttledRTT := r.session(chaosTarget).RTTNs
		target.rate.Store(0)
		t.Logf("throttled to %d B/s: RTT %v -> %v", chaosRate, time.Duration(healthyRTT), time.Duration(throttledRTT))
		if !entered(trs, telemetry.SLOBreach) {
			t.Errorf("no breach under the collapse: %v", trs)
		} else if node, phase, excess := breach.Breakdown.Critical(); node != chaosTarget || phase != PhaseUplink {
			t.Errorf("the breach image's critical path is node %d phase %d (excess %v), want node %d phase %d (uplink)",
				node, phase, excess, chaosTarget, PhaseUplink)
		}
		if throttledRTT < 10*healthyRTT {
			t.Errorf("RTT %v under the throttle, want at least 10× the healthy %v", time.Duration(throttledRTT), time.Duration(healthyRTT))
		}
		if ok, reasons := r.blamed(chaosTarget, PhaseUplink, since); !ok {
			t.Errorf("no breach dump since the throttle names worst-node=%d phase=uplink: %q", chaosTarget, reasons)
		}
		r.run(t, slowImages+fastImages)
		back := r.session(chaosTarget).RTTNs
		t.Logf("RTT %v after the heal", time.Duration(back))
		if back >= throttledRTT/10 {
			t.Errorf("RTT %v after the heal, want below a tenth of the throttled %v", time.Duration(back), time.Duration(throttledRTT))
		}
		if r.engine.Breached() {
			t.Error("SLO still breached after the heal")
		}
	})

	// A node clock 30 ms ahead: the offset estimator absorbs it and gives
	// it back, and the Central-clock latency SLO never notices.
	t.Run("skew", func(t *testing.T) {
		if n := r.session(chaosTarget).OffsetSamples; n < 5 {
			t.Fatalf("offset estimator has %d samples before the skew, want at least 5", n)
		}
		skew := float64(chaosSkew)
		target.skew.Store(int64(chaosSkew))
		trs := r.run(t, 2*slowImages)
		off := float64(r.session(chaosTarget).ClockOffsetNs)
		target.skew.Store(0)
		trs = append(trs, r.run(t, 2*slowImages)...)
		back := float64(r.session(chaosTarget).ClockOffsetNs)
		t.Logf("offset %.2fms under a +%v skew, %.2fms after", off/1e6, chaosSkew, back/1e6)
		if math.Abs(off+skew) > 0.3*skew {
			t.Errorf("offset estimate %.2fms under a +%v skew, want within 30%% of %v", off/1e6, chaosSkew, -chaosSkew)
		}
		if math.Abs(back) > 0.3*skew {
			t.Errorf("offset estimate %.2fms after the skew, want within %v of zero", back/1e6, 3*chaosSkew/10)
		}
		if entered(trs, telemetry.SLOBreach) || r.engine.Breached() {
			t.Errorf("clock skew tripped the latency SLO: %v", trs)
		}
	})

	// The node dies holding its tile of an image: that tile zero-fills at
	// T_L, the images while it is down go to the survivors, and once it
	// is back its session redials (epoch 2) and takes tiles again.
	t.Run("crash", func(t *testing.T) {
		target.crash.Store(true)
		if st, _ := r.image(t); st.TilesMissed != 1 || st.Received[chaosTarget] != 0 {
			t.Errorf("crash image: %d tiles missed, %d returned by node %d; want its one tile zero-filled",
				st.TilesMissed, st.Received[chaosTarget], chaosTarget)
		}
		for i := 0; i < 3; i++ {
			if st, _ := r.image(t); st.TilesMissed != 0 || st.Alloc[chaosTarget] != 0 || st.Alloc.Total() != chaosNodes {
				t.Errorf("image %d with the node down: alloc %v, %d missed; want every tile on a survivor", i, st.Alloc, st.TilesMissed)
			}
		}
		target.restart <- struct{}{}
		var st InferStats
		for i := 0; i < slowImages+fastImages; i++ {
			if st, _ = r.image(t); st.TilesMissed != 0 {
				t.Errorf("image %d after the restart missed %d tiles", i, st.TilesMissed)
			}
		}
		if s := r.session(chaosTarget); !s.Alive || s.Epochs < 2 || st.Received[chaosTarget] == 0 {
			t.Errorf("node not back: alive %v, epoch %d, last image's tiles %v", s.Alive, s.Epochs, st.Received)
		}
		var down, re bool
		for _, ev := range r.flight.Events() {
			down = down || ev.Kind == "session-down" && ev.Node == chaosTarget
			re = re || ev.Kind == "session-reconnect" && ev.Node == chaosTarget
		}
		for _, d := range r.flight.Dumps() {
			down = down || d.Reason == "session-failover"
		}
		if !down || !re {
			t.Errorf("flight recorder: session-down (event or failover dump) %v, session-reconnect %v", down, re)
		}
		if r.engine.Breached() {
			t.Error("SLO still breached after the reconnect")
		}
	})
}
