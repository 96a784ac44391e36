package core

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// TestSLOBreachDumpsFlightRecorder: a breach transition on a wired
// Central must trigger a whole-ring flight dump whose reason names the
// breaching objective and the last image's critical path — here node 1,
// which holds each tile 20 ms.
func TestSLOBreachDumpsFlightRecorder(t *testing.T) {
	m, err := models.Build(models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	met := NewMetrics(telemetry.NewRegistry())
	flight := telemetry.NewFlightRecorder(0)
	var wg sync.WaitGroup
	cfg := CentralConfig{Model: m, TL: 10 * time.Second, Gamma: 0.9, Metrics: met, Flight: flight}
	for k, hold := range []time.Duration{0, 20 * time.Millisecond} {
		w, _ := slowWorker(k+1, m, hold)
		a, b := Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Serve(context.Background(), b)
		}()
		cfg.Conns = append(cfg.Conns, a)
	}
	c, err := cfg.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Shutdown(); wg.Wait() }()

	engine := NewSLOEngine(met, SLOConfig{
		TileP99:    0.001, // 1ms: any real inference breaches
		MissBudget: -1,    // latency objective only
		FastWindow: 500 * time.Millisecond,
		SlowWindow: time.Second,
	})
	c.WireSLO(engine)

	// One real image, split evenly over the two nodes before Algorithm 2
	// learns node 1 is slow, so a node-1 tile settles last.
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(21)), 1)
	if _, st, err := c.Infer(x); err != nil || st.Received[1] == 0 {
		t.Fatalf("image: %v, tiles per node %v", err, st.Received)
	}
	// Real tiles can all finish inside 1ms on a fast machine, so slow
	// round trips go into the histogram too: the breach must not depend
	// on how fast the host convolves.
	for i := 0; i < 200; i++ {
		met.TileRoundTrip.Observe(0.080)
	}
	trs := engine.Tick(time.Now())
	if !engine.Breached() {
		t.Fatalf("1ms objective did not breach (transitions %+v)", trs)
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
		t.Fatalf("dump reason %q must name the critical-path node", d.Reason)
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

// TestCentralFeedsWindowsAndHealth: after live traffic the instruments
// the SLO engine windows hold data, and the critical-path counter
// counted the image under its Breakdown.Critical — the SLO engine and
// ops console read from them.
func TestCentralFeedsWindowsAndHealth(t *testing.T) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)
	c, _, stop := buildRuntime(t, opt, 2, 10*time.Second, func(cfg *CentralConfig) { cfg.Metrics = met })
	defer stop()

	rng := rand.New(rand.NewSource(22))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	_, st, err := c.Infer(x)
	if err != nil {
		t.Fatal(err)
	}

	if n := met.TileRoundTrip.Snapshot().Count; n != 4 {
		t.Fatalf("tile round-trip histogram holds %d tiles, want 4", n)
	}
	if got := met.TilesMissed.Value(); got != 0 {
		t.Fatalf("missed tiles = %v, want 0", got)
	}
	node, phase, excess := st.Breakdown.Critical()
	if node < 0 {
		t.Fatal("the image's breakdown has no tiles")
	}
	counted := 0.0
	for _, f := range reg.Snapshot().Families {
		if f.Name == "adcnn_central_critical_path_total" {
			for _, ms := range f.Metrics {
				counted += ms.Value
			}
		}
	}
	want := 0.0
	if phase >= 0 {
		want = 1
		if v, _ := reg.Value("adcnn_central_critical_path_total", nodeLabel(node), PhaseNames[phase]); v != 1 {
			t.Errorf("critical_path_total{node=%d,phase=%s} = %v, want 1", node, PhaseNames[phase], v)
		}
	}
	if counted != want {
		t.Errorf("critical_path_total sums to %v, want %v for excess %v", counted, want, excess)
	}
}

// TestSLOHonoursLongSlowWindow: the Central's objectives keep bad events
// for the whole configured slow window, however long — a 120s window
// forgets the zero-fills exactly 120s after the tick that saw them.
func TestSLOHonoursLongSlowWindow(t *testing.T) {
	const tick, slow = time.Second, 120 * time.Second
	met := NewMetrics(telemetry.NewRegistry())
	e := NewSLOEngine(met, SLOConfig{TileP99: -1, FastWindow: 10 * time.Second, SlowWindow: slow})
	t0 := time.Unix(1_000_000, 0)
	e.Tick(t0)
	for i := 0; i < 99; i++ {
		met.TileRoundTrip.Observe(0.001)
	}
	met.TilesMissed.Inc()
	seen := t0.Add(tick)
	for now := seen; !now.After(seen.Add(slow)); now = now.Add(tick) {
		e.Tick(now)
		st := e.Status()[0]
		if st.Objective != SLOZeroFill {
			t.Fatalf("objective %q, want %q", st.Objective, SLOZeroFill)
		}
		if inSlow := now.Before(seen.Add(slow)); (st.SlowBurn > 0) != inSlow {
			t.Fatalf("%v after the zero-fill: slow burn %v, want in window = %v", now.Sub(seen), st.SlowBurn, inSlow)
		}
	}
}
