package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock drives a windowed instrument's ring deterministically.
type fakeClock struct {
	mu sync.Mutex
	ns int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.ns += int64(d)
	c.mu.Unlock()
}

func newTestWindowHist(span time.Duration, slots int, buckets []float64) (*WindowedHistogram, *fakeClock) {
	w := NewWindowedHistogram(span, slots, buckets)
	clk := &fakeClock{}
	w.ring.nowNs = clk.now
	return w, clk
}

func newTestWindowCounter(span time.Duration, slots int) (*WindowedCounter, *fakeClock) {
	c := NewWindowedCounter(span, slots)
	clk := &fakeClock{}
	c.ring.nowNs = clk.now
	return c, clk
}

func TestWindowedHistogramRollingQuantile(t *testing.T) {
	// 10 slots of 1s each. Fill 5s with fast observations, then 5s with
	// slow ones; the full-span p50 sits between, the last-2s view sees
	// only the slow regime, and after the span rolls past the fast data
	// it is forgotten entirely.
	w, clk := newTestWindowHist(10*time.Second, 10, []float64{0.001, 0.01, 0.1, 1})
	for s := 0; s < 10; s++ {
		if s > 0 {
			clk.advance(time.Second)
		}
		v := 0.005 // 0.01 bucket
		if s >= 5 {
			v = 0.5 // 1 bucket
		}
		for i := 0; i < 100; i++ {
			w.Observe(v)
		}
	}

	full := w.Snapshot(10 * time.Second)
	if full.Count != 1000 {
		t.Fatalf("full window count %d, want 1000", full.Count)
	}
	if q := full.Quantile(0.99); q < 0.1 {
		t.Fatalf("full-span p99 %.4f should reflect the slow regime", q)
	}
	recent := w.Snapshot(2 * time.Second)
	if recent.Count != 200 {
		t.Fatalf("2s window count %d, want 200", recent.Count)
	}
	if q := recent.Quantile(0.5); q < 0.1 {
		t.Fatalf("recent p50 %.4f must see only slow observations", q)
	}

	// Roll the ring fully past the data: everything expires.
	clk.advance(11 * time.Second)
	if got := w.Snapshot(10 * time.Second); got.Count != 0 {
		t.Fatalf("expired window still holds %d observations", got.Count)
	}
	if q := w.Quantile(10*time.Second, 0.99); !math.IsNaN(q) {
		t.Fatalf("empty window quantile = %v, want NaN", q)
	}
}

func TestWindowedHistogramDropsNonFinite(t *testing.T) {
	w, _ := newTestWindowHist(time.Second, 4, nil)
	w.Observe(math.NaN())
	w.Observe(math.Inf(1))
	w.Observe(math.Inf(-1))
	w.Observe(0.25)
	snap := w.Snapshot(time.Second)
	if snap.Count != 1 || snap.Sum != 0.25 {
		t.Fatalf("non-finite observations leaked: count=%d sum=%v", snap.Count, snap.Sum)
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
	if q := snap.Quantile(0.99); math.IsNaN(q) || math.IsInf(q, 0) {
		t.Fatalf("quantile poisoned: %v", q)
	}
}

func TestWindowedCounterRates(t *testing.T) {
	c, clk := newTestWindowCounter(10*time.Second, 10)
	for s := 0; s < 10; s++ {
		if s > 0 {
			clk.advance(time.Second)
		}
		c.Add(5)
	}
	if got := c.Total(10 * time.Second); got != 50 {
		t.Fatalf("full total %v, want 50", got)
	}
	if got := c.Total(3 * time.Second); got != 15 {
		t.Fatalf("3s total %v, want 15", got)
	}
	clk.advance(20 * time.Second)
	if got := c.Total(10 * time.Second); got != 0 {
		t.Fatalf("expired total %v, want 0", got)
	}
	c.Add(math.NaN())
	c.Add(math.Inf(1))
	if got := c.Total(time.Second); got != 0 {
		t.Fatalf("non-finite adds leaked: %v", got)
	}
}

func TestWindowRingSkipsSlots(t *testing.T) {
	// A burst, then silence for several slot widths, then another burst:
	// the skipped slots must be zeroed, not inherited.
	c, clk := newTestWindowCounter(4*time.Second, 4)
	c.Add(8)
	clk.advance(3 * time.Second) // skips 2 slots
	c.Add(1)
	if got := c.Total(time.Second); got != 1 {
		t.Fatalf("current slot total %v, want 1", got)
	}
	if got := c.Total(4 * time.Second); got != 9 {
		t.Fatalf("full total %v, want 9 (old burst still in span)", got)
	}
	clk.advance(2 * time.Second) // first burst's slot now expired
	if got := c.Total(4 * time.Second); got != 1 {
		t.Fatalf("total after expiry %v, want 1", got)
	}
}

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
	if got := snap.FractionAbove(0.01); math.Abs(got-0.10) > 0.02 {
		t.Fatalf("FractionAbove(0.01) = %v, want ~0.10", got)
	}
	if got := snap.FractionAbove(1.0); got != 0 {
		t.Fatalf("FractionAbove(max) = %v, want 0", got)
	}
	if got := snap.FractionAbove(0.0001); got != 1 {
		t.Fatalf("FractionAbove(<min) = %v, want 1", got)
	}
	// Agreement with Quantile: the fraction above the p90 estimate ~ 10%.
	p90 := snap.Quantile(0.90)
	if got := snap.FractionAbove(p90); math.Abs(got-0.10) > 0.05 {
		t.Fatalf("FractionAbove(Quantile(0.9)) = %v, want ~0.1", got)
	}
	var empty HistogramSnapshot
	if got := empty.FractionAbove(1); got != 0 {
		t.Fatalf("empty FractionAbove = %v", got)
	}
}

// TestWindowedRace hammers both instruments from concurrent observers
// and readers; run with -race.
func TestWindowedRace(t *testing.T) {
	w := NewWindowedHistogram(100*time.Millisecond, 10, nil)
	c := NewWindowedCounter(100*time.Millisecond, 10)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				w.Observe(float64(seed*i%7) * 0.001)
				c.Add(1)
			}
		}(g + 1)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = w.Snapshot(50 * time.Millisecond)
				_ = w.Quantile(100*time.Millisecond, 0.99)
				_ = c.Total(50 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
}

func TestWindowedNilReceivers(t *testing.T) {
	var w *WindowedHistogram
	var c *WindowedCounter
	w.Observe(1)
	w.ObserveDuration(5)
	if got := w.Snapshot(time.Second); got.Count != 0 {
		t.Fatal("nil histogram snapshot must be empty")
	}
	c.Add(1)
	if got := c.Total(time.Second); got != 0 {
		t.Fatal("nil counter total must be 0")
	}
}
