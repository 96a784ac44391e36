package sched

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"
)

// Decision audit: the Driver appends its first allocation and every
// reallocation Algorithm 3 computes to a bounded ring as a structured
// record — the s_k inputs it saw, the split it replaced, the objective
// before and after, and a best-effort attribution of *why* it moved
// (which node's estimate shifted most).
// The ring answers the operator question "why did the scheduler just
// move 4 tiles off node 2" without reconstructing it from metrics.

// Decision is one audited allocation.
type Decision struct {
	Seq   uint64    `json:"seq"`
	At    time.Time `json:"at"`
	Image uint32    `json:"image"`

	// Speeds are the s_k estimates the allocation was computed from.
	Speeds []float64 `json:"speeds"`

	// Prev is the split this one replaced; nil for the first allocation.
	Prev Allocation `json:"prev,omitempty"`
	Next Allocation `json:"next"`

	// ObjBefore is the old split's bottleneck under the *new* speeds —
	// what the objective would have been had the scheduler not moved —
	// and ObjAfter the new split's. Their gap is the move's payoff.
	ObjBefore float64 `json:"obj_before"`
	ObjAfter  float64 `json:"obj_after"`

	// TilesMoved counts tiles that changed nodes (half the L1 distance
	// between the splits).
	TilesMoved int `json:"tiles_moved"`

	// Trigger names what prompted the move: "initial" for the first
	// allocation, otherwise "speed node=K ±P%" for the node whose
	// estimate shifted most since the previous plan.
	Trigger string `json:"trigger"`
}

// DefaultAuditSize is the ring capacity used when size ≤ 0.
const DefaultAuditSize = 256

// Audit is a fixed-size ring of scheduler decisions. All methods are
// nil-receiver safe; ServeHTTP makes it mountable at /debug/sched.
type Audit struct {
	mu      sync.Mutex
	buf     []Decision
	next    int
	wrapped bool
	seq     uint64
	log     *slog.Logger
}

// NewAudit creates a ring holding the last size decisions. logger may
// be nil; when set, every recorded decision is logged at Debug level.
func NewAudit(size int, logger *slog.Logger) *Audit {
	if size <= 0 {
		size = DefaultAuditSize
	}
	return &Audit{buf: make([]Decision, size), log: logger}
}

// record appends one decision, stamping its sequence number.
func (a *Audit) record(d Decision) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.seq++
	d.Seq = a.seq
	a.buf[a.next] = d
	a.next++
	if a.next == len(a.buf) {
		a.next = 0
		a.wrapped = true
	}
	log := a.log
	a.mu.Unlock()
	if log != nil {
		log.Debug("sched decision",
			"seq", d.Seq, "image", d.Image, "trigger", d.Trigger,
			"tiles_moved", d.TilesMoved,
			"obj_before", d.ObjBefore, "obj_after", d.ObjAfter)
	}
}

// Decisions returns a copy of the ring contents, oldest first.
func (a *Audit) Decisions() []Decision {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.wrapped {
		return append([]Decision(nil), a.buf[:a.next]...)
	}
	out := make([]Decision, 0, len(a.buf))
	out = append(out, a.buf[a.next:]...)
	return append(out, a.buf[:a.next]...)
}

// auditPage is the /debug/sched JSON shape.
type auditPage struct {
	Recorded  uint64     `json:"decisions_recorded"`
	Capacity  int        `json:"capacity"`
	Decisions []Decision `json:"decisions"`
}

// ServeHTTP renders the audit ring as JSON, oldest decision first.
func (a *Audit) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if a == nil {
		_, _ = w.Write([]byte("{}\n"))
		return
	}
	a.mu.Lock()
	seq := a.seq
	capacity := len(a.buf)
	a.mu.Unlock()
	page := auditPage{Recorded: seq, Capacity: capacity, Decisions: a.Decisions()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(page)
}

// tilesMoved is half the L1 distance between two splits over the same
// nodes — the number of tiles that changed nodes.
func tilesMoved(prev, next Allocation) int {
	d := 0
	for k := range next {
		if diff := next[k] - prev[k]; diff > 0 {
			d += diff
		} else {
			d -= diff
		}
	}
	return d / 2
}

// attributeTrigger names the node whose s_k estimate moved most
// (relatively) between two plans; a zero baseline counts as 1 so a
// node rising from nothing still yields a finite attribution. A
// Driver's node set is fixed, so both vectors have one entry per node.
func attributeTrigger(prevSpeeds, speeds []float64) string {
	worst, worstK := 0.0, -1
	for k := range speeds {
		base := prevSpeeds[k]
		if base <= 0 {
			base = 1
		}
		rel := (speeds[k] - prevSpeeds[k]) / base
		if rel < 0 {
			rel = -rel
		}
		if rel > worst {
			worst, worstK = rel, k
		}
	}
	if worstK < 0 || worst < 1e-9 {
		return "speed-drift"
	}
	sign := "+"
	if speeds[worstK] < prevSpeeds[worstK] {
		sign = "-"
	}
	return fmt.Sprintf("speed node=%d %s%.0f%%", worstK, sign, worst*100)
}
