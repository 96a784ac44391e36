package telemetry

import (
	"math"
	"sync"
	"testing"
)

// TestConcurrentInstruments hammers one counter, gauge and histogram
// from many goroutines; run under -race this is the registry's
// thread-safety proof, and the totals check catches lost updates.
func TestConcurrentInstruments(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Re-resolve through the registry on every iteration to also
			// race the get-or-create path.
			for j := 0; j < perWorker; j++ {
				reg.Counter("c_total", "").Inc()
				reg.Gauge("g", "").Add(1)
				reg.CounterVec("cv_total", "", "node").With("7").Add(2)
				reg.Histogram("h_seconds", "", nil).Observe(float64(j%10) / 1000)
			}
		}(i)
	}
	wg.Wait()

	const total = workers * perWorker
	if v, _ := reg.Value("c_total"); v != total {
		t.Fatalf("counter = %v, want %d", v, total)
	}
	if v, _ := reg.Value("g"); v != total {
		t.Fatalf("gauge = %v, want %d", v, total)
	}
	if v, _ := reg.Value("cv_total", "7"); v != 2*total {
		t.Fatalf("labelled counter = %v, want %d", v, 2*total)
	}
	h := reg.Histogram("h_seconds", "", nil).Snapshot()
	if h.Count != total {
		t.Fatalf("histogram count = %d, want %d", h.Count, total)
	}
}

func TestHistogramBucketMath(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le semantics: bucket i counts v <= upper[i] (non-cumulative here).
	want := []uint64{2, 2, 1, 1} // {0.5,1}, {1.5,2}, {3}, {10}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, c, want[i], s.Counts)
		}
	}
	if s.Sum != 18 || s.Count != 6 || s.Min != 0.5 || s.Max != 10 {
		t.Fatalf("sum/count/min/max = %v/%v/%v/%v", s.Sum, s.Count, s.Min, s.Max)
	}
}

// TestHistogramQuantiles checks the interpolated quantile estimates
// against a known uniform distribution: 1..1000 into decade buckets.
func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("u", "", []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000})
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 500, 2},
		{0.95, 950, 2},
		{0.99, 990, 2},
		{1.00, 1000, 0},
	} {
		got := QuantileFromBuckets(s.Upper, s.Cumulative(), tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Fatalf("q%.2f = %v, want %v ± %v", tc.q, got, tc.want, tc.tol)
		}
	}
	var empty HistogramSnapshot
	if !math.IsNaN(QuantileFromBuckets(empty.Upper, empty.Cumulative(), 0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
}

func TestCumulativeHistogramDropsNonFinite(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("nan_guard_seconds", "", nil)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(0.5)
	snap := h.Snapshot()
	if snap.Count != 1 {
		t.Fatalf("count %d, want 1 (non-finite dropped)", snap.Count)
	}
	if math.IsNaN(snap.Sum) || math.IsInf(snap.Sum, 0) {
		t.Fatalf("sum poisoned: %v", snap.Sum)
	}
	if q := QuantileFromBuckets(snap.Upper, snap.Cumulative(), 0.99); math.IsNaN(q) || math.IsInf(q, 0) {
		t.Fatalf("quantile poisoned: %v", q)
	}
}

// TestFractionAbove holds FractionAboveFromBuckets to the interpolation
// of QuantileFromBuckets on a cumulative histogram's buckets.
func TestFractionAbove(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("frac_seconds", "", []float64{0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	snap := h.Snapshot()
	upper, cum := snap.Upper, snap.Cumulative()
	for _, tc := range []struct{ v, want float64 }{
		{0.01, 0.10},    // a bucket bound: everything past the first bucket
		{0.0001, 0.991}, // 1% into the first bucket, which spans from 0
		{0, 1},
		{0.55, 0.05}, // halfway through (0.1, 1], which holds 10
		{1.0, 0},     // the last finite bound: the overflow bucket sits there
	} {
		if got := FractionAboveFromBuckets(upper, cum, tc.v); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("FractionAboveFromBuckets(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
	// Agreement with QuantileFromBuckets: the fraction above the
	// q-quantile estimate is 1−q.
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		p := QuantileFromBuckets(upper, cum, q)
		if got := FractionAboveFromBuckets(upper, cum, p); math.Abs(got-(1-q)) > 1e-9 {
			t.Fatalf("FractionAboveFromBuckets(p%g=%v) = %v, want %v", q*100, p, got, 1-q)
		}
	}
	if got := FractionAboveFromBuckets(nil, nil, 1); got != 0 {
		t.Fatalf("empty FractionAboveFromBuckets = %v", got)
	}
}

func TestSnapshotShape(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("b_total", "", "node").With("1").Add(3)
	reg.CounterVec("b_total", "", "node").With("0").Add(4)
	reg.Gauge("a", "").Set(-2)
	s := reg.Snapshot()
	if len(s.Families) != 2 || s.Families[0].Name != "a" || s.Families[1].Name != "b_total" {
		t.Fatalf("families misordered: %+v", s.Families)
	}
	b := s.Families[1]
	if b.Kind != "counter" || len(b.Metrics) != 2 ||
		b.Metrics[0].LabelValues[0] != "0" || b.Metrics[1].LabelValues[0] != "1" {
		t.Fatalf("label tuples misordered: %+v", b.Metrics)
	}
	if b.Metrics[0].Value != 4 || b.Metrics[1].Value != 3 {
		t.Fatalf("values: %+v", b.Metrics)
	}
}

func TestSchemaViolationsPanic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "")
	for name, f := range map[string]func(){
		"kind change":    func() { reg.Gauge("x_total", "") },
		"label change":   func() { reg.CounterVec("x_total", "", "node") },
		"bad name":       func() { reg.Counter("5bad", "") },
		"bad label":      func() { reg.CounterVec("ok", "", "bad-label") },
		"missing values": func() { reg.CounterVec("y_total", "", "node").With() },
		"counter dec":    func() { reg.Counter("z_total", "").Add(-1) },
		"bad buckets":    func() { reg.Histogram("h", "", []float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
