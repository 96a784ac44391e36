package telemetry

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// SLO evaluation: declarative objectives over cumulative instruments,
// judged with the multi-window burn-rate method. Each objective defines
// an error budget (the tolerated fraction of bad events) and the engine
// compares the observed bad fraction against that budget over two
// windows at once: a fast window for detection latency and a slow
// window so a single hiccup cannot trip the alarm. burn = badFraction /
// budget, so burn 1 means "spending budget exactly as fast as allowed".
// The state machine is ok → warn → breach:
//
//	breach  when fast AND slow burn ≥ BreachBurn (sustained, severe)
//	warn    when fast OR slow burn ≥ WarnBurn
//	ok      otherwise
//
// Recovery is symmetric — the slow window's memory is the hysteresis,
// so a breach clears only once the bad events age out of it.
//
// Windows come from the engine's own samples, the way adcnn-top diffs
// two scrapes: every Tick(now) reads each objective's cumulative totals,
// and a window's events are the newest sample minus the newest one at or
// before now − window. Time enters only through Tick, and a sample older
// than the slow window is dropped once a newer one also reaches back
// that far, so an objective holds SlowWindow/tick + 1 samples.

// SLOState is an objective's current judgment.
type SLOState uint8

// Objective states, ordered by severity.
const (
	SLOOK SLOState = iota
	SLOWarn
	SLOBreach
)

// String names the state for logs, gauges, and the ops console.
func (s SLOState) String() string {
	switch s {
	case SLOOK:
		return "ok"
	case SLOWarn:
		return "warn"
	case SLOBreach:
		return "breach"
	}
	return "unknown"
}

// SLO is one declarative objective. Exactly one of the two sources is
// set: a histogram judged against a latency threshold at a quantile
// (budget = 1−Quantile, a bad event is an observation above Threshold),
// or a good/bad pair judged against an explicit Budget ratio.
type SLO struct {
	Name string

	// Latency-quantile objective: "Quantile of Hist must stay below
	// Threshold", e.g. p99 tile latency < 25ms.
	Hist      *Histogram
	Quantile  float64
	Threshold float64 // same unit as the histogram's observations

	// Ratio objective: Bad/(Good+Bad) must stay within Budget, e.g.
	// zero-filled tiles < 1% of settled ones. Every observation of Good
	// is one good event; Bad counts the bad ones.
	Good   *Histogram
	Bad    *Counter
	Budget float64

	FastWindow time.Duration
	SlowWindow time.Duration

	// Burn thresholds; zero values take the defaults.
	WarnBurn   float64
	BreachBurn float64

	// MinEvents is the fast-window event floor below which the
	// objective abstains (stays in its current state): a handful of
	// samples cannot indict or acquit a tail quantile.
	MinEvents uint64
}

// Default burn thresholds and evaluation interval.
const (
	DefaultWarnBurn   = 1.0
	DefaultBreachBurn = 8.0
	DefaultMinEvents  = 8
	DefaultSLOTick    = 100 * time.Millisecond
)

// NewLatencySLO declares a latency objective: quantile q of h over the
// fast/slow windows must stay below threshold (seconds, matching the
// *_seconds histogram convention).
func NewLatencySLO(name string, h *Histogram, q, threshold float64, fast, slow time.Duration) *SLO {
	if q <= 0 || q >= 1 {
		panic("telemetry: SLO quantile out of (0,1)")
	}
	return &SLO{Name: name, Hist: h, Quantile: q, Threshold: threshold,
		FastWindow: fast, SlowWindow: slow}
}

// NewRatioSLO declares an error-ratio objective: bad/(good+bad) over
// the fast/slow windows must stay within budget, good counting the
// observations of a histogram.
func NewRatioSLO(name string, good *Histogram, bad *Counter, budget float64, fast, slow time.Duration) *SLO {
	if budget <= 0 || budget >= 1 {
		panic("telemetry: SLO budget out of (0,1)")
	}
	return &SLO{Name: name, Good: good, Bad: bad, Budget: budget,
		FastWindow: fast, SlowWindow: slow}
}

// read returns the objective's cumulative totals: Hist's cumulative
// bucket counts (+Inf total last), or the good and bad event counts.
func (s *SLO) read() []uint64 {
	if s.Hist != nil {
		return s.Hist.Snapshot().Cumulative()
	}
	return []uint64{s.Good.Snapshot().Count, uint64(s.Bad.Value())}
}

// sloSample is one reading of an objective's cumulative totals.
type sloSample struct {
	at time.Time
	v  []uint64
}

// SLOTransition is one state change, delivered to subscribers.
type SLOTransition struct {
	Objective string    `json:"objective"`
	From      SLOState  `json:"-"`
	To        SLOState  `json:"-"`
	FromName  string    `json:"from"`
	ToName    string    `json:"to"`
	At        time.Time `json:"at"`
	FastBurn  float64   `json:"fast_burn"`
	SlowBurn  float64   `json:"slow_burn"`
	Detail    string    `json:"detail"`
}

// SLOStatus is one objective's current judgment, for /healthz bodies
// and the ops console.
type SLOStatus struct {
	Objective string    `json:"objective"`
	State     string    `json:"state"`
	Since     time.Time `json:"since"`
	FastBurn  float64   `json:"fast_burn"`
	SlowBurn  float64   `json:"slow_burn"`
}

// objectiveState is the engine's per-objective bookkeeping.
type objectiveState struct {
	slo     *SLO
	samples []sloSample // oldest first
	state   SLOState
	since   time.Time

	fastBurn, slowBurn float64

	stateGauge *Gauge // nil when the engine has no registry
	fastGauge  *Gauge
	slowGauge  *Gauge
}

// record appends the reading at now and drops every sample a slow
// window no longer reaches back to, keeping the newest one at or before
// now − SlowWindow as the slow window's base.
func (st *objectiveState) record(now time.Time) {
	st.samples = append(st.samples, sloSample{at: now, v: st.slo.read()})
	cut := now.Add(-st.slo.SlowWindow)
	i := 0
	for i+1 < len(st.samples) && !st.samples[i+1].at.After(cut) {
		i++
	}
	st.samples = slices.Delete(st.samples, 0, i)
}

// delta returns the events of the window d ending at the newest sample:
// that sample minus the newest one at or before its time − d, or minus
// the first while the history is shorter than d.
func (st *objectiveState) delta(d time.Duration) []uint64 {
	last := st.samples[len(st.samples)-1]
	cut := last.at.Add(-d)
	base := st.samples[0]
	for _, smp := range st.samples[1:] {
		if smp.at.After(cut) {
			break
		}
		base = smp
	}
	return DeltaBuckets(last.v, base.v)
}

// burn returns the burn rate and event count over one window.
func (st *objectiveState) burn(d time.Duration) (burn float64, events uint64) {
	s, delta := st.slo, st.delta(d)
	if len(delta) == 0 {
		return 0, 0
	}
	if s.Hist != nil {
		events = delta[len(delta)-1]
		if events == 0 {
			return 0, 0
		}
		return FractionAboveFromBuckets(s.Hist.upper, delta, s.Threshold) / (1 - s.Quantile), events
	}
	good, bad := delta[0], delta[1]
	if good+bad == 0 {
		return 0, 0
	}
	return float64(bad) / float64(good+bad) / s.Budget, good + bad
}

// SLOEngine evaluates registered objectives on Tick and fans state
// transitions out to subscribers. All methods are safe for concurrent
// use and nil-receiver safe, matching the rest of the telemetry layer.
// When built over a Registry the engine exports per-objective gauges —
// adcnn_slo_state{objective} (0 ok / 1 warn / 2 breach) and
// adcnn_slo_burn{objective,window} — so /metrics carries the judgment
// and the ops console needs no extra endpoint.
type SLOEngine struct {
	mu       sync.Mutex
	objs     []*objectiveState
	subs     []func(SLOTransition)
	breached int

	stateVec *GaugeVec
	burnVec  *GaugeVec
}

// NewSLOEngine creates an engine. reg may be nil (no gauge export).
func NewSLOEngine(reg *Registry) *SLOEngine {
	e := &SLOEngine{}
	if reg != nil {
		e.stateVec = reg.GaugeVec("adcnn_slo_state",
			"SLO objective state: 0 ok, 1 warn, 2 breach.", "objective")
		e.burnVec = reg.GaugeVec("adcnn_slo_burn",
			"SLO burn rate (bad fraction over error budget) per evaluation window.", "objective", "window")
	}
	return e
}

// Register adds an objective, filling zero thresholds with defaults.
func (e *SLOEngine) Register(s *SLO) {
	if e == nil {
		return
	}
	if (s.Hist == nil) == (s.Good == nil || s.Bad == nil) {
		panic("telemetry: SLO needs exactly one of Hist or Good/Bad")
	}
	if s.FastWindow <= 0 || s.SlowWindow < s.FastWindow {
		panic("telemetry: SLO windows need 0 < fast <= slow")
	}
	if s.WarnBurn == 0 {
		s.WarnBurn = DefaultWarnBurn
	}
	if s.BreachBurn == 0 {
		s.BreachBurn = DefaultBreachBurn
	}
	if s.MinEvents == 0 {
		s.MinEvents = DefaultMinEvents
	}
	// The reading at registration is the first sample, older than any
	// tick: until the history reaches back a full window, the window
	// counts everything since registration.
	st := &objectiveState{slo: s, samples: []sloSample{{v: s.read()}}}
	if e.stateVec != nil {
		st.stateGauge = e.stateVec.With(s.Name)
		st.fastGauge = e.burnVec.With(s.Name, "fast")
		st.slowGauge = e.burnVec.With(s.Name, "slow")
	}
	e.mu.Lock()
	e.objs = append(e.objs, st)
	e.mu.Unlock()
}

// Subscribe registers a callback invoked (outside the engine lock, on
// the ticking goroutine) for every state transition.
func (e *SLOEngine) Subscribe(fn func(SLOTransition)) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.subs = append(e.subs, fn)
	e.mu.Unlock()
}

// Tick samples and evaluates every objective once and returns the
// transitions that fired. now must not go backwards between calls.
// Subscribers run before Tick returns.
func (e *SLOEngine) Tick(now time.Time) []SLOTransition {
	if e == nil {
		return nil
	}
	var fired []SLOTransition
	e.mu.Lock()
	subs := e.subs
	for _, st := range e.objs {
		s := st.slo
		st.record(now)
		if st.since.IsZero() {
			st.since = now
		}
		fastBurn, fastN := st.burn(s.FastWindow)
		slowBurn, _ := st.burn(s.SlowWindow)
		st.fastBurn, st.slowBurn = fastBurn, slowBurn
		if st.fastGauge != nil {
			st.fastGauge.Set(fastBurn)
			st.slowGauge.Set(slowBurn)
		}
		next := st.state
		switch {
		case fastN < s.MinEvents && fastN > 0:
			// Too thin to judge; hold the current state. A fully empty
			// fast window falls through: burns are 0, so a quiet system
			// recovers rather than latching breach forever.
		case fastBurn >= s.BreachBurn && slowBurn >= s.BreachBurn:
			next = SLOBreach
		case fastBurn >= s.WarnBurn || slowBurn >= s.WarnBurn:
			next = SLOWarn
		default:
			next = SLOOK
		}
		if next != st.state {
			tr := SLOTransition{
				Objective: s.Name,
				From:      st.state, To: next,
				FromName: st.state.String(), ToName: next.String(),
				At: now, FastBurn: fastBurn, SlowBurn: slowBurn,
				Detail: st.detail(fastBurn, slowBurn),
			}
			if next == SLOBreach {
				e.breached++
			}
			if st.state == SLOBreach {
				e.breached--
			}
			st.state = next
			st.since = now
			fired = append(fired, tr)
		}
		if st.stateGauge != nil {
			st.stateGauge.Set(float64(st.state))
		}
	}
	e.mu.Unlock()
	for _, tr := range fired {
		for _, fn := range subs {
			fn(tr)
		}
	}
	return fired
}

// detail renders the objective's current numbers for transition logs.
func (st *objectiveState) detail(fastBurn, slowBurn float64) string {
	s := st.slo
	if s.Hist != nil {
		q := QuantileFromBuckets(s.Hist.upper, st.delta(s.FastWindow), s.Quantile)
		if math.IsNaN(q) {
			q = 0
		}
		return fmt.Sprintf("p%g=%.1fms threshold=%.1fms fast_burn=%.1f slow_burn=%.1f",
			s.Quantile*100, q*1e3, s.Threshold*1e3, fastBurn, slowBurn)
	}
	return fmt.Sprintf("bad_ratio_budget=%.3g fast_burn=%.1f slow_burn=%.1f",
		s.Budget, fastBurn, slowBurn)
}

// Run ticks the engine every interval until ctx is cancelled. interval
// ≤ 0 uses DefaultSLOTick.
func (e *SLOEngine) Run(ctx context.Context, interval time.Duration) {
	if e == nil {
		return
	}
	if interval <= 0 {
		interval = DefaultSLOTick
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			e.Tick(now)
		}
	}
}

// Breached reports whether any objective is currently in breach — the
// /healthz wiring for load balancers: 503 while this is true.
func (e *SLOEngine) Breached() bool {
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.breached > 0
}

// Status snapshots every objective's current judgment.
func (e *SLOEngine) Status() []SLOStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SLOStatus, 0, len(e.objs))
	for _, st := range e.objs {
		out = append(out, SLOStatus{
			Objective: st.slo.Name,
			State:     st.state.String(),
			Since:     st.since,
			FastBurn:  st.fastBurn,
			SlowBurn:  st.slowBurn,
		})
	}
	return out
}
