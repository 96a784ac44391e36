// Package telemetry is a dependency-free observability layer for the
// ADCNN runtime: a metrics registry (counters, gauges, histograms with
// configurable buckets and quantile estimation) with Prometheus
// text-format exposition and a structured snapshot API, plus a
// lightweight tracer that records per-image / per-tile spans and exports
// Chrome trace-event JSON viewable in Perfetto or chrome://tracing.
//
// The paper's runtime is driven entirely by runtime statistics —
// Algorithm 2's EWMA throughput estimates s_k, deadline hits and misses
// against T_L, and the compression ratio of the clipped-ReLU → quantize
// → RLE pipeline. This package makes those quantities observable from
// the outside without adding third-party dependencies: everything is
// stdlib only, and the hot-path cost of an instrument is one atomic
// CAS (counter/gauge) or one short mutex hold (histogram).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric families.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus TYPE lines.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families keyed by name. All methods are safe for
// concurrent use; get-or-create calls return the same instrument for the
// same name+labels, so call sites may re-resolve instruments freely.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed kind and label schema.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histogram upper bounds

	mu       sync.Mutex
	children map[string]any // joined label values -> *Counter/*Gauge/*Histogram
	order    []string       // insertion order of child keys (sorted at exposition)
}

// validName reports whether s is a legal Prometheus metric/label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// lookup returns the family, creating it on first use and panicking on a
// schema conflict (same name registered with a different kind or label
// set is a programming error, not a runtime condition).
func (r *Registry) lookup(name, help string, kind Kind, buckets []float64, labelNames []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !validName(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind,
			labelNames: append([]string(nil), labelNames...),
			buckets:    append([]float64(nil), buckets...),
			children:   make(map[string]any),
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind || len(f.labelNames) != len(labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with a different schema", name))
	}
	for i, l := range labelNames {
		if f.labelNames[i] != l {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with different labels", name))
		}
	}
	return f
}

// child returns the metric for one label-value tuple, creating it with
// mk on first use.
func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := joinValues(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = mk()
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// joinValues builds the child map key; \xff never appears in label text.
func joinValues(values []string) string {
	out := ""
	for i, v := range values {
		if i > 0 {
			out += "\xff"
		}
		out += v
	}
	return out
}

func splitValues(key string, n int) []string {
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	start := 0
	for i := 0; i < len(key); i++ {
		if key[i] == '\xff' {
			out = append(out, key[start:i])
			start = i + 1
		}
	}
	return append(out, key[start:])
}

// ---------------------------------------------------------------- counter

// Counter is a monotonically non-decreasing float64.
type Counter struct{ bits atomic.Uint64 }

// Add increments the counter. Negative deltas panic.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("telemetry: counter decrease")
	}
	addFloat(&c.bits, v)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Counter returns the unlabelled counter named name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec is a counter family with labels. A vec may carry curried
// (pre-bound) leading label values — see Curry.
type CounterVec struct {
	f   *family
	pre []string
}

// CounterVec returns the counter family named name with the given label
// schema.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, KindCounter, nil, labelNames)}
}

// With resolves one label-value tuple (appended to any curried values).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(joinPre(v.pre, values), func() any { return &Counter{} }).(*Counter)
}

// Curry returns a view of the family with the given leading label values
// pre-bound: With on the view supplies only the remaining labels. The
// view shares the family, so differently-curried views of one vec stay
// schema-consistent — this is how per-replica instrument bundles share
// one registry without re-registering families.
func (v *CounterVec) Curry(values ...string) *CounterVec {
	return &CounterVec{f: v.f, pre: joinPre(v.pre, values)}
}

// joinPre concatenates curried and call-site label values.
func joinPre(pre, values []string) []string {
	if len(pre) == 0 {
		return values
	}
	out := make([]string, 0, len(pre)+len(values))
	return append(append(out, pre...), values...)
}

// ------------------------------------------------------------------ gauge

// Gauge is an instantaneous float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by v (may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge returns the unlabelled gauge named name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec is a gauge family with labels, optionally curried (see
// CounterVec.Curry).
type GaugeVec struct {
	f   *family
	pre []string
}

// GaugeVec returns the gauge family named name with the given label
// schema.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, KindGauge, nil, labelNames)}
}

// With resolves one label-value tuple (appended to any curried values).
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(joinPre(v.pre, values), func() any { return &Gauge{} }).(*Gauge)
}

// Curry pre-binds leading label values (see CounterVec.Curry).
func (v *GaugeVec) Curry(values ...string) *GaugeVec {
	return &GaugeVec{f: v.f, pre: joinPre(v.pre, values)}
}

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// -------------------------------------------------------------- histogram

// Histogram counts observations into cumulative buckets and tracks
// sum/count/min/max for quantile estimation.
type Histogram struct {
	upper []float64 // strictly increasing finite upper bounds

	mu     sync.Mutex
	counts []uint64 // len(upper)+1; the last is the +Inf overflow bucket
	sum    float64
	n      uint64
	min    float64
	max    float64
}

// Observe records one value. Non-finite values (NaN, ±Inf) are dropped:
// a single NaN would silently corrupt the sum and poison every quantile
// interpolated from it, and ±Inf pins min/max forever.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.mu.Unlock()
}

// ObserveDuration records a duration in seconds given nanoseconds — the
// convention for all *_seconds histograms.
func (h *Histogram) ObserveDuration(ns int64) { h.Observe(float64(ns) / 1e9) }

// Snapshot returns a consistent copy of the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Upper:  append([]float64(nil), h.upper...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
		Min:    h.min,
		Max:    h.max,
	}
}

// DefBuckets is the default latency bucket layout in seconds, spanning
// sub-millisecond kernel times to multi-second deadline misses.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram returns the unlabelled histogram named name. nil buckets use
// DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec is a histogram family with labels, optionally curried
// (see CounterVec.Curry).
type HistogramVec struct {
	f   *family
	pre []string
}

// HistogramVec returns the histogram family named name with the given
// bucket layout and label schema. nil buckets use DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not increasing", name))
		}
	}
	return &HistogramVec{f: r.lookup(name, help, KindHistogram, buckets, labelNames)}
}

// With resolves one label-value tuple (appended to any curried values).
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.child(joinPre(v.pre, values), func() any {
		return &Histogram{upper: f.buckets, counts: make([]uint64, len(f.buckets)+1)}
	}).(*Histogram)
}

// Curry pre-binds leading label values (see CounterVec.Curry).
func (v *HistogramVec) Curry(values ...string) *HistogramVec {
	return &HistogramVec{f: v.f, pre: joinPre(v.pre, values)}
}

// --------------------------------------------------------------- snapshot

// Snapshot is a point-in-time copy of every metric, for tests and JSON.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family's state.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Kind    string           `json:"kind"`
	Labels  []string         `json:"labels,omitempty"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one labelled instrument's state.
type MetricSnapshot struct {
	LabelValues []string           `json:"label_values,omitempty"`
	Value       float64            `json:"value"` // counter total / gauge level / histogram sum
	Histogram   *HistogramSnapshot `json:"histogram,omitempty"`
}

// HistogramSnapshot is a histogram's bucket state.
type HistogramSnapshot struct {
	Upper  []float64 `json:"upper"` // finite upper bounds; overflow bucket implied
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Cumulative returns the bucket counts as running totals, the +Inf
// total last: the layout a /metrics scrape carries and QuantileFromBuckets,
// FractionAboveFromBuckets and DeltaBuckets read.
func (s HistogramSnapshot) Cumulative() []uint64 {
	out := append([]uint64(nil), s.Counts...)
	for i := 1; i < len(out); i++ {
		out[i] += out[i-1]
	}
	return out
}

// Snapshot captures every family, sorted by metric name and label tuple.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var out Snapshot
	for _, f := range fams {
		fs := FamilySnapshot{
			Name: f.name, Help: f.help, Kind: f.kind.String(),
			Labels: append([]string(nil), f.labelNames...),
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make(map[string]any, len(f.children))
		for k, v := range f.children {
			children[k] = v
		}
		f.mu.Unlock()
		sort.Strings(keys)
		for _, key := range keys {
			ms := MetricSnapshot{LabelValues: splitValues(key, len(f.labelNames))}
			switch m := children[key].(type) {
			case *Counter:
				ms.Value = m.Value()
			case *Gauge:
				ms.Value = m.Value()
			case *Histogram:
				hs := m.Snapshot()
				ms.Histogram = &hs
				ms.Value = hs.Sum
			}
			fs.Metrics = append(fs.Metrics, ms)
		}
		out.Families = append(out.Families, fs)
	}
	return out
}

// Value looks one metric value up by name and label values: counter
// total, gauge level, or histogram observation count. ok is false when
// the metric does not exist.
func (r *Registry) Value(name string, labelValues ...string) (v float64, ok bool) {
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil {
		return 0, false
	}
	f.mu.Lock()
	c, ok := f.children[joinValues(labelValues)]
	f.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch m := c.(type) {
	case *Counter:
		return m.Value(), true
	case *Gauge:
		return m.Value(), true
	case *Histogram:
		return float64(m.Snapshot().Count), true
	}
	return 0, false
}
