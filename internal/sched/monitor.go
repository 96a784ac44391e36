package sched

import (
	"slices"
	"strconv"
	"sync"
	"time"

	"adcnn/internal/telemetry"
)

// Monitor publishes Algorithm 2's EWMA throughput estimates s_k as
// adcnn_sched_speed{node}. When an Audit ring is attached it also
// appends a structured Decision record for the first allocation and for
// every reallocation, with its objective before and after, the tiles it
// moved and trigger attribution from the speed drift since the previous
// one. All methods are nil-receiver safe so call sites need no guards.
type Monitor struct {
	speed *telemetry.GaugeVec

	mu         sync.Mutex
	last       Allocation
	lastSpeeds []float64
	seen       bool
	audit      *Audit
}

// NewMonitor registers the speed gauge on reg. A non-empty replica
// gives it a leading "replica" label bound to that value, for processes hosting several Central replicas on one
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

// ObserveAllocation remembers one allocation and — when an Audit is
// attached and the allocation is the first or changed the tile split
// since the last image — records the decision with its s_k inputs,
// objective delta, tiles moved and trigger attribution. image
// identifies the inference the allocation was computed for.
func (m *Monitor) ObserveAllocation(a Allocation, speeds []float64, image uint32) {
	if m == nil {
		return
	}
	m.mu.Lock()
	first := !m.seen
	changed := len(m.last) == len(a) && !slices.Equal(m.last, a)
	var d *Decision
	if m.audit != nil && (first || changed) {
		d = &Decision{
			At:       time.Now(),
			Image:    image,
			Speeds:   append([]float64(nil), speeds...),
			Next:     append(Allocation(nil), a...),
			ObjAfter: a.Bottleneck(speeds),
		}
		if first {
			d.ObjBefore = d.ObjAfter
			d.Trigger = "initial"
		} else {
			d.Prev = append(Allocation(nil), m.last...)
			d.ObjBefore = d.Prev.Bottleneck(speeds)
			d.TilesMoved = tilesMoved(d.Prev, a)
			d.Trigger = attributeTrigger(m.lastSpeeds, speeds)
		}
	}
	audit := m.audit
	m.last = append(m.last[:0], a...)
	m.lastSpeeds = append(m.lastSpeeds[:0], speeds...)
	m.seen = true
	m.mu.Unlock()
	if d != nil {
		audit.record(*d)
	}
}
