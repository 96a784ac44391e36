package sched

import (
	"strconv"
	"sync"
	"time"

	"adcnn/internal/telemetry"
)

// Monitor publishes the scheduler's internal state — the quantities
// Algorithm 2 and 3 are driven by — as metrics:
//
//	adcnn_sched_speed{node}        EWMA throughput estimate s_k
//	adcnn_sched_bottleneck         allocation objective max_k x_k/s_k
//	adcnn_sched_allocations_total  allocations computed
//	adcnn_sched_realloc_total      allocations that shifted tiles between
//	                               nodes relative to the previous one
//
// When an Audit ring is attached the Monitor also appends a structured
// Decision record for the first allocation and for every reallocation,
// with trigger attribution from the speed drift since the previous one.
// All methods are nil-receiver safe so call sites need no guards.
type Monitor struct {
	speed      *telemetry.GaugeVec
	bottleneck *telemetry.Gauge
	allocs     *telemetry.Counter
	reallocs   *telemetry.Counter

	mu         sync.Mutex
	last       Allocation
	lastSpeeds []float64
	lastLink   []float64
	seen       bool
	audit      *Audit
}

// NewMonitor registers the scheduler metrics on reg. A non-empty
// replica gives every family a leading "replica" label bound to that
// value, for processes hosting several Central replicas on one
// registry; every monitor on a registry must use the same schema — the
// registry rejects mixing the labeled and unlabeled one.
func NewMonitor(reg *telemetry.Registry, replica string) *Monitor {
	var labels, bound []string
	if replica != "" {
		labels, bound = []string{"replica"}, []string{replica}
	}
	return &Monitor{
		speed: reg.GaugeVec("adcnn_sched_speed",
			"Algorithm 2 EWMA throughput estimate s_k per Conv node.", append(labels, "node")...).Curry(bound...),
		bottleneck: reg.GaugeVec("adcnn_sched_bottleneck",
			"Allocation objective max_k x_k/s_k of the last allocation (Equation 1).", labels...).With(bound...),
		allocs: reg.CounterVec("adcnn_sched_allocations_total",
			"Tile allocations computed.", labels...).With(bound...),
		reallocs: reg.CounterVec("adcnn_sched_realloc_total",
			"Allocations that moved tiles between nodes vs the previous image.", labels...).With(bound...),
	}
}

// ObserveSpeeds publishes the current s_k estimates.
func (m *Monitor) ObserveSpeeds(speeds []float64) {
	if m == nil {
		return
	}
	for k, s := range speeds {
		m.speed.With(strconv.Itoa(k)).Set(s)
	}
}

// AttachAudit wires a decision-audit ring into the monitor. Safe to
// call once before traffic; a nil audit leaves auditing off.
func (m *Monitor) AttachAudit(a *Audit) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.audit = a
	m.mu.Unlock()
}

// Audit returns the attached decision ring (nil when none).
func (m *Monitor) Audit() *Audit {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.audit
}

// ObserveAllocation publishes one allocation's objective, counts a
// reallocation event when the tile split changed since the last image,
// and — when an Audit is attached — records the decision with its s_k
// inputs, objective delta, and trigger attribution. image identifies
// the inference the allocation was computed for. effSpeeds are the
// transfer-derated speeds a link-aware split was actually computed from
// (nil when the mode is off or uncalibrated) and linkSecs the per-node
// transfer costs behind them. Objectives are evaluated on the effective
// speeds — the quantity the allocator minimized — and trigger
// attribution weighs link-cost shifts against speed shifts, so a move
// caused purely by a bandwidth collapse is named "link node=K" even
// while the measured s_k held steady.
func (m *Monitor) ObserveAllocation(a Allocation, speeds, effSpeeds, linkSecs []float64, image uint32) {
	if m == nil {
		return
	}
	objSpeeds := speeds
	if effSpeeds != nil {
		objSpeeds = effSpeeds
	}
	objAfter := a.Bottleneck(objSpeeds)
	m.bottleneck.Set(objAfter)
	m.allocs.Inc()
	m.mu.Lock()
	first := !m.seen
	changed := len(m.last) == len(a)
	if changed {
		same := true
		for k, x := range a {
			if m.last[k] != x {
				same = false
				break
			}
		}
		changed = !same
	}
	var d *Decision
	if m.audit != nil && (first || changed) {
		d = &Decision{
			At:       time.Now(),
			Image:    image,
			Speeds:   append([]float64(nil), speeds...),
			Next:     append(Allocation(nil), a...),
			ObjAfter: objAfter,
		}
		if effSpeeds != nil {
			d.EffSpeeds = append([]float64(nil), effSpeeds...)
			d.LinkSecs = append([]float64(nil), linkSecs...)
		}
		if first {
			d.ObjBefore = objAfter
			d.Trigger = "initial"
		} else {
			d.Prev = append(Allocation(nil), m.last...)
			d.ObjBefore = d.Prev.Bottleneck(objSpeeds)
			d.TilesMoved = tilesMoved(d.Prev, a)
			d.Trigger = attributeTriggerLink(m.lastSpeeds, speeds, m.lastLink, linkSecs)
		}
	}
	audit := m.audit
	m.last = append(m.last[:0], a...)
	m.lastSpeeds = append(m.lastSpeeds[:0], speeds...)
	m.lastLink = append(m.lastLink[:0], linkSecs...)
	m.seen = true
	m.mu.Unlock()
	if changed {
		m.reallocs.Inc()
	}
	if d != nil {
		audit.record(*d)
	}
}
