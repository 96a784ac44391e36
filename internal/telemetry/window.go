package telemetry

import (
	"math"
	"sync"
	"time"
)

// Sliding-window instruments: a ring of bucketed sub-windows that gives
// rolling quantiles and rates over "the last N seconds" instead of
// since-process-start. The cumulative Histogram answers "what has this
// process ever seen"; these answer "is p99 breaching *right now*" —
// the question an SLO engine, a health scorer, or an ops console asks.
//
// Both instruments share the same mechanics: time is divided into
// fixed-width sub-windows (slots), observations land in the current
// slot, and a query merges the most recent ceil(window/width) slots —
// including the partially-filled current one, so a "last 1s" view spans
// at most one extra slot width of data. Rotation zeroes expired slots
// lazily on the next observation or query; the hot path is one short
// mutex hold and no allocation, like the cumulative instruments.

// windowRing tracks which slot is current and rotates on the clock.
type windowRing struct {
	width int64 // slot width, ns
	slots int
	start int64 // start of the current slot's period, mono ns
	cur   int
	nowNs func() int64 // injectable for tests; monotonic
}

// monoClock returns a monotonic nanosecond clock anchored at init time.
func monoClock() func() int64 {
	epoch := time.Now()
	return func() int64 { return int64(time.Since(epoch)) }
}

// advance rotates to the slot containing now, calling zero(i) for every
// slot whose previous contents expired. Caller holds the instrument's
// mutex.
func (r *windowRing) advance(now int64, zero func(int)) {
	if now < r.start {
		return // clock went backwards (test injection); keep current slot
	}
	steps := (now - r.start) / r.width
	if steps == 0 {
		return
	}
	if steps >= int64(r.slots) {
		for i := 0; i < r.slots; i++ {
			zero(i)
		}
		r.cur = 0
		r.start = now - (now-r.start)%r.width
		return
	}
	for i := int64(0); i < steps; i++ {
		r.cur = (r.cur + 1) % r.slots
		zero(r.cur)
	}
	r.start += steps * r.width
}

// recent returns the number of slots a window of duration d covers,
// clamped to the ring.
func (r *windowRing) recent(d time.Duration) int {
	n := int((int64(d) + r.width - 1) / r.width)
	if n < 1 {
		n = 1
	}
	if n > r.slots {
		n = r.slots
	}
	return n
}

// ------------------------------------------------------- windowed histogram

// WindowedHistogram is a sliding-window histogram: a ring of bucketed
// sub-windows over a fixed span. Observe is race-clean and
// allocation-free; Snapshot(window) merges the most recent sub-windows
// into an ordinary HistogramSnapshot, so Quantile/FractionAbove work
// unchanged on the rolling view. Queries for any window up to the span
// come from the same instrument, which is what lets one histogram feed
// both the fast and the slow burn-rate window of an SLO.
type WindowedHistogram struct {
	mu    sync.Mutex
	upper []float64
	ring  windowRing

	counts [][]uint64 // [slot][bucket]; last bucket is +Inf overflow
	sums   []float64
	ns     []uint64
	mins   []float64
	maxs   []float64
}

// NewWindowedHistogram creates a histogram spanning span, divided into
// slots sub-windows. nil buckets use DefBuckets.
func NewWindowedHistogram(span time.Duration, slots int, buckets []float64) *WindowedHistogram {
	if span <= 0 || slots < 1 {
		panic("telemetry: bad window spec")
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	w := &WindowedHistogram{
		upper:  append([]float64(nil), buckets...),
		ring:   windowRing{width: int64(span) / int64(slots), slots: slots, nowNs: monoClock()},
		counts: make([][]uint64, slots),
		sums:   make([]float64, slots),
		ns:     make([]uint64, slots),
		mins:   make([]float64, slots),
		maxs:   make([]float64, slots),
	}
	if w.ring.width <= 0 {
		panic("telemetry: window span shorter than slot count")
	}
	for i := range w.counts {
		w.counts[i] = make([]uint64, len(buckets)+1)
	}
	return w
}

// Span returns the total window the ring covers.
func (w *WindowedHistogram) Span() time.Duration {
	return time.Duration(w.ring.width * int64(w.ring.slots))
}

func (w *WindowedHistogram) zeroSlot(i int) {
	for j := range w.counts[i] {
		w.counts[i][j] = 0
	}
	w.sums[i] = 0
	w.ns[i] = 0
	w.mins[i] = 0
	w.maxs[i] = 0
}

// Observe records one value into the current sub-window. Non-finite
// values (NaN, ±Inf) are dropped — a single NaN would otherwise poison
// the sum and every quantile interpolated from it.
func (w *WindowedHistogram) Observe(v float64) {
	if w == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	i := 0
	for i < len(w.upper) && w.upper[i] < v {
		i++
	}
	w.mu.Lock()
	w.ring.advance(w.ring.nowNs(), w.zeroSlot)
	c := w.ring.cur
	w.counts[c][i]++
	w.sums[c] += v
	if w.ns[c] == 0 || v < w.mins[c] {
		w.mins[c] = v
	}
	if w.ns[c] == 0 || v > w.maxs[c] {
		w.maxs[c] = v
	}
	w.ns[c]++
	w.mu.Unlock()
}

// ObserveDuration records a duration in seconds given nanoseconds.
func (w *WindowedHistogram) ObserveDuration(ns int64) {
	if w == nil {
		return
	}
	w.Observe(float64(ns) / 1e9)
}

// Snapshot merges the sub-windows covering the last window duration
// (clamped to the span) into a HistogramSnapshot, so the cumulative
// snapshot's Quantile and FractionAbove apply to the rolling view.
func (w *WindowedHistogram) Snapshot(window time.Duration) HistogramSnapshot {
	if w == nil {
		return HistogramSnapshot{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ring.advance(w.ring.nowNs(), w.zeroSlot)
	out := HistogramSnapshot{
		Upper:  append([]float64(nil), w.upper...),
		Counts: make([]uint64, len(w.upper)+1),
	}
	n := w.ring.recent(window)
	for k := 0; k < n; k++ {
		i := (w.ring.cur - k + w.ring.slots) % w.ring.slots
		if w.ns[i] == 0 {
			continue
		}
		for j, c := range w.counts[i] {
			out.Counts[j] += c
		}
		out.Sum += w.sums[i]
		if out.Count == 0 || w.mins[i] < out.Min {
			out.Min = w.mins[i]
		}
		if out.Count == 0 || w.maxs[i] > out.Max {
			out.Max = w.maxs[i]
		}
		out.Count += w.ns[i]
	}
	return out
}

// Quantile estimates the q-quantile over the last window duration.
// Returns NaN when the window holds no observations.
func (w *WindowedHistogram) Quantile(window time.Duration, q float64) float64 {
	return w.Snapshot(window).Quantile(q)
}

// --------------------------------------------------------- windowed counter

// WindowedCounter is a sliding-window sum: Add lands in the current
// sub-window, Total sums the most recent sub-windows. One counter
// serves every window up to the span (fast and slow burn windows, the
// ops console's rate column) without double bookkeeping.
type WindowedCounter struct {
	mu   sync.Mutex
	ring windowRing
	vals []float64
}

// NewWindowedCounter creates a counter spanning span, divided into
// slots sub-windows.
func NewWindowedCounter(span time.Duration, slots int) *WindowedCounter {
	if span <= 0 || slots < 1 {
		panic("telemetry: bad window spec")
	}
	c := &WindowedCounter{
		ring: windowRing{width: int64(span) / int64(slots), slots: slots, nowNs: monoClock()},
		vals: make([]float64, slots),
	}
	if c.ring.width <= 0 {
		panic("telemetry: window span shorter than slot count")
	}
	return c
}

// Span returns the total window the ring covers.
func (c *WindowedCounter) Span() time.Duration {
	return time.Duration(c.ring.width * int64(c.ring.slots))
}

func (c *WindowedCounter) zeroSlot(i int) { c.vals[i] = 0 }

// Add folds v into the current sub-window. Non-finite values are
// dropped, mirroring the histogram guard.
func (c *WindowedCounter) Add(v float64) {
	if c == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	c.mu.Lock()
	c.ring.advance(c.ring.nowNs(), c.zeroSlot)
	c.vals[c.ring.cur] += v
	c.mu.Unlock()
}

// Inc adds one.
func (c *WindowedCounter) Inc() { c.Add(1) }

// Total sums the last window duration (clamped to the span).
func (c *WindowedCounter) Total(window time.Duration) float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring.advance(c.ring.nowNs(), c.zeroSlot)
	var sum float64
	n := c.ring.recent(window)
	for k := 0; k < n; k++ {
		sum += c.vals[(c.ring.cur-k+c.ring.slots)%c.ring.slots]
	}
	return sum
}
