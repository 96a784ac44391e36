package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

// t0 is an arbitrary start for the engine's clock: every test drives
// time only through Tick(now).
var t0 = time.Unix(1_000_000, 0)

// sloFixture builds a latency SLO over a fresh cumulative histogram
// registered into an engine, returning the pieces the tests drive.
func sloFixture(reg *Registry) (*SLOEngine, *Histogram) {
	h := NewRegistry().Histogram("tile_seconds", "", []float64{0.005, 0.01, 0.05, 0.1})
	e := NewSLOEngine(reg)
	// p90 < 10ms, fast 1s / slow 4s. Budget 10%: breach needs a bad
	// fraction ≥ 80% sustained across both windows.
	e.Register(NewLatencySLO("tile_latency_p90", h, 0.90, 0.010, time.Second, 4*time.Second))
	return e, h
}

// ratioFixture builds a zero-fill style objective: good events are the
// histogram's observations, bad ones the counter.
func ratioFixture(budget float64, fast, slow time.Duration) (*SLOEngine, *Histogram, *Counter) {
	reg := NewRegistry()
	good := reg.Histogram("tile_seconds", "", nil)
	bad := reg.Counter("missed_total", "")
	e := NewSLOEngine(nil)
	e.Register(NewRatioSLO("zero_fill", good, bad, budget, fast, slow))
	return e, good, bad
}

func observeN(h *Histogram, n int, v float64) {
	for i := 0; i < n; i++ {
		h.Observe(v)
	}
}

func TestSLOLatencyBreachAndRecovery(t *testing.T) {
	reg := NewRegistry()
	e, h := sloFixture(reg)

	var mu sync.Mutex
	var seen []SLOTransition
	e.Subscribe(func(tr SLOTransition) {
		mu.Lock()
		seen = append(seen, tr)
		mu.Unlock()
	})

	// Healthy traffic: everything under threshold, state stays ok.
	observeN(h, 100, 0.002)
	now := t0
	if trs := e.Tick(now); len(trs) != 0 {
		t.Fatalf("healthy traffic fired transitions: %+v", trs)
	}

	// Gray failure: all observations blow the threshold. Fill both the
	// fast and slow windows so both burns saturate.
	var trs []SLOTransition
	for step := 0; step < 10; step++ {
		observeN(h, 50, 0.08)
		now = now.Add(500 * time.Millisecond)
		trs = append(trs, e.Tick(now)...)
	}
	if len(trs) == 0 {
		t.Fatal("sustained badness fired no transition")
	}
	last := trs[len(trs)-1]
	if last.To != SLOBreach {
		t.Fatalf("expected breach, got %s (fast=%.1f slow=%.1f)", last.ToName, last.FastBurn, last.SlowBurn)
	}
	if !e.Breached() {
		t.Fatal("Breached() false after breach transition")
	}
	if v, ok := reg.Value("adcnn_slo_state", "tile_latency_p90"); !ok || v != float64(SLOBreach) {
		t.Fatalf("adcnn_slo_state gauge = %v (ok=%v), want %d", v, ok, SLOBreach)
	}

	// Recovery: the bad observations age out of both windows.
	now = now.Add(10 * time.Second)
	observeN(h, 100, 0.002)
	e.Tick(now)
	if e.Breached() {
		t.Fatalf("breach did not clear after windows drained: %+v", e.Status())
	}
	st := e.Status()
	if len(st) != 1 || st[0].State != "ok" || !st[0].Since.Equal(now) {
		t.Fatalf("status after recovery: %+v", st)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) < 2 {
		t.Fatalf("subscriber saw %d transitions, want breach+recovery", len(seen))
	}
	if seen[len(seen)-1].To != SLOOK {
		t.Fatalf("final transition %s, want ok", seen[len(seen)-1].ToName)
	}
}

func TestSLOMinEventsAbstains(t *testing.T) {
	e, h := sloFixture(nil)
	// Three terrible observations: fewer than MinEvents, so the
	// objective must hold ok rather than indict a p90 on 3 samples.
	observeN(h, 3, 0.08)
	if trs := e.Tick(t0); len(trs) != 0 {
		t.Fatalf("abstention floor ignored: %+v", trs)
	}
	if got := e.Status()[0]; got.State != "ok" || got.FastBurn < DefaultBreachBurn {
		t.Fatalf("status %+v, want ok held over a breach-level burn under MinEvents", got)
	}
}

func TestSLOWarnBeforeBreach(t *testing.T) {
	e, h := sloFixture(nil)
	// Warm the slow window with healthy traffic, then push a bad burst
	// into only the fast window: fast burn spikes but slow burn stays
	// below BreachBurn → warn, not breach.
	now := t0
	e.Tick(now)
	for step := 0; step < 6; step++ {
		observeN(h, 200, 0.002)
		now = now.Add(500 * time.Millisecond)
		e.Tick(now)
	}
	observeN(h, 200, 0.08)
	now = now.Add(500 * time.Millisecond)
	trs := e.Tick(now)
	if len(trs) != 1 || trs[0].To != SLOWarn {
		t.Fatalf("want single ok→warn transition, got %+v", trs)
	}
	if e.Breached() {
		t.Fatal("short burst must not count as breach")
	}
}

func TestSLORatioObjective(t *testing.T) {
	// Zero-fill budget 5%: breach at bad fraction ≥ 40% on both windows.
	e, good, bad := ratioFixture(0.05, time.Second, 4*time.Second)
	now := t0
	for step := 0; step < 10; step++ {
		observeN(good, 10, 0.001)
		bad.Add(10) // 50% bad — 10× the budget
		now = now.Add(500 * time.Millisecond)
		e.Tick(now)
	}
	if !e.Breached() {
		t.Fatalf("50%% zero-fill on a 5%% budget must breach: %+v", e.Status())
	}

	now = now.Add(10 * time.Second)
	observeN(good, 200, 0.001)
	e.Tick(now)
	if e.Breached() {
		t.Fatal("ratio breach did not recover")
	}
}

// TestSLOWindowsForgetOnTime: bad events observed between two ticks
// count in the fast window until exactly FastWindow after the tick that
// first saw them, and in the slow window until exactly SlowWindow after.
func TestSLOWindowsForgetOnTime(t *testing.T) {
	const tick, fast, slow = 100 * time.Millisecond, time.Second, 4 * time.Second
	e, good, bad := ratioFixture(0.01, fast, slow)
	e.Tick(t0)
	observeN(good, 100, 0.001)
	bad.Add(100)
	seen := t0.Add(tick)
	e.Tick(seen)
	if st := e.Status()[0]; st.FastBurn != 50 || st.SlowBurn != 50 {
		t.Fatalf("burns %+v, want 50 (50%% bad on a 1%% budget) in both windows", st)
	}
	for now := seen.Add(tick); !now.After(seen.Add(slow)); now = now.Add(tick) {
		e.Tick(now)
		st := e.Status()[0]
		if inFast := now.Before(seen.Add(fast)); (st.FastBurn > 0) != inFast {
			t.Fatalf("%v after the events: fast burn %v, want in window = %v", now.Sub(seen), st.FastBurn, inFast)
		}
		if inSlow := now.Before(seen.Add(slow)); (st.SlowBurn > 0) != inSlow {
			t.Fatalf("%v after the events: slow burn %v, want in window = %v", now.Sub(seen), st.SlowBurn, inSlow)
		}
	}
}

// TestSLOHistoryBounded: the engine keeps SlowWindow/tick + 1 samples
// per objective however long it runs.
func TestSLOHistoryBounded(t *testing.T) {
	const tick, slow = 100 * time.Millisecond, 4 * time.Second
	e, good, _ := ratioFixture(0.01, time.Second, slow)
	const want = int(slow/tick) + 1
	now := t0
	for i := 0; i < 500; i++ {
		good.Observe(0.001)
		e.Tick(now)
		n := len(e.objs[0].samples)
		if n > want || (i >= want && n != want) {
			t.Fatalf("tick %d holds %d samples, want %d once the slow window is full", i, n, want)
		}
		now = now.Add(tick)
	}
}

// TestSLOBurnMath checks both objective kinds against
// burns worked out by hand from the bucket interpolation.
//
// A latency objective reads its bad fraction from the histogram with
// FractionAboveFromBuckets, which takes the observations inside a bucket
// (lo, hi] as spread evenly over it: an objective v inside the bucket
// counts (hi−v)/(hi−lo) of them as above v, whatever their true values.
// So the error is up to the whole bucket's count, and it vanishes at a
// bound, where every observation is on a known side. On DefBuckets the
// buckets are wide near the tile times (25–50 ms, 50–100 ms): against a
// 44.5 ms objective, tiles of 45 ms — all of them bad — read
// (50−44.5)/(50−25) = 22 % bad (TestSLOBurnAtDefBucketsBound).
func TestSLOBurnMath(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "", []float64{0.01, 0.1})
	miss := reg.Counter("missed_total", "")
	e := NewSLOEngine(nil)
	e.Register(NewLatencySLO("latency", h, 0.99, 0.055, time.Second, time.Second))
	e.Register(NewRatioSLO("zero_fill", h, miss, 0.01, time.Second, time.Second))
	observeN(h, 90, 0.005)
	observeN(h, 10, 0.05)
	miss.Add(25)
	e.Tick(t0)
	st := e.Status()
	// 0.055 sits halfway through the (0.01, 0.1] bucket: 90 + 10/2 = 95
	// observations below it, 5% above, on a 1% budget → burn 5.
	if math.Abs(st[0].FastBurn-5) > 1e-9 || st[0].SlowBurn != st[0].FastBurn {
		t.Fatalf("latency burn %+v, want 5", st[0])
	}
	// 25 missed of 125 settled = 20% on a 1% budget → burn 20.
	if math.Abs(st[1].FastBurn-20) > 1e-9 || st[1].SlowBurn != st[1].FastBurn {
		t.Fatalf("zero-fill burn %+v, want 20", st[1])
	}
}

// TestSLOBurnAtDefBucketsBound pins both sides of the interpolation
// error documented on TestSLOBurnMath, on DefBuckets with a 1 % budget:
// an objective at the 25 ms bound counts tiles of 20 ms and 45 ms
// exactly, and a 44.5 ms objective reads tiles of 45 ms as 22 % bad.
func TestSLOBurnAtDefBucketsBound(t *testing.T) {
	for _, c := range []struct {
		objective, tile float64
		bad             float64 // the fraction above the objective it reads
	}{
		{0.025, 0.045, 1}, // exact: every tile is above
		{0.025, 0.020, 0}, // exact: every tile is below
		{0.0445, 0.045, (0.05 - 0.0445) / (0.05 - 0.025)}, // 0.22, not 1
	} {
		h := NewRegistry().Histogram("tile_seconds", "", DefBuckets)
		e := NewSLOEngine(nil)
		e.Register(NewLatencySLO("tile_latency_p99", h, 0.99, c.objective, time.Second, time.Second))
		observeN(h, 100, c.tile)
		e.Tick(t0)
		if st := e.Status()[0]; math.Abs(st.FastBurn-100*c.bad) > 1e-9 {
			t.Errorf("objective %g s, tiles %g s: burn %g, want %g (%.0f%% bad)",
				c.objective, c.tile, st.FastBurn, 100*c.bad, 100*c.bad)
		}
	}
}

func TestSLORegisterValidation(t *testing.T) {
	e := NewSLOEngine(nil)
	mustPanic := func(name string, s *SLO) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
		}()
		e.Register(s)
	}
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", "", nil)
	c := reg.Counter("c_total", "")
	mustPanic("no source", &SLO{Name: "x", FastWindow: time.Second, SlowWindow: time.Second})
	mustPanic("both sources", &SLO{Name: "x", Hist: h, Good: h, Bad: c,
		Quantile: 0.9, Threshold: 1, Budget: 0.1, FastWindow: time.Second, SlowWindow: time.Second})
	mustPanic("fast > slow", &SLO{Name: "x", Hist: h, Quantile: 0.9, Threshold: 1,
		FastWindow: 2 * time.Second, SlowWindow: time.Second})
}

func TestSLONilEngine(t *testing.T) {
	var e *SLOEngine
	e.Register(&SLO{})
	e.Subscribe(func(SLOTransition) {})
	if e.Tick(t0) != nil || e.Breached() || e.Status() != nil {
		t.Fatal("nil engine must be inert")
	}
}
