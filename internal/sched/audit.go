package sched

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"
)

// Decision audit: every allocation Algorithm 3 computes is appended to a
// bounded ring as a structured record — the s_k inputs it saw, the split
// it replaced, the objective before and after, and a best-effort
// attribution of *why* it moved (which node's estimate shifted most).
// The ring answers the operator question "why did the scheduler just
// move 4 tiles off node 2" without reconstructing it from metrics.

// Decision is one audited allocation.
type Decision struct {
	Seq   uint64    `json:"seq"`
	At    time.Time `json:"at"`
	Image uint32    `json:"image"`

	// Speeds are the s_k estimates the allocation was computed from.
	Speeds []float64 `json:"speeds"`

	// LinkSecs is the per-node transfer-cost estimate (seconds per
	// tile) a link-aware allocation folded in, and EffSpeeds the
	// derated speeds the split was actually computed from. Both are
	// omitted when link-aware dispatch was off or uncalibrated.
	LinkSecs  []float64 `json:"link_secs,omitempty"`
	EffSpeeds []float64 `json:"eff_speeds,omitempty"`

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
	// estimate shifted most since the previous decision, or
	// "link node=K ±P%" when a transfer-cost shift dominated it.
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

// Record appends one decision, stamping its sequence number. The
// Monitor feeds per-image allocation decisions through here; the
// cluster layer records its share rebalances the same way, so one ring
// answers both "why did tiles move between nodes" and "why did capacity
// move between replicas".
func (a *Audit) Record(d Decision) { a.record(d) }

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

// tilesMoved is half the L1 distance between two splits — the number of
// tiles that changed nodes. Length mismatch (node set changed) counts
// every tile of the larger split as moved.
func tilesMoved(prev, next Allocation) int {
	if len(prev) != len(next) {
		if t := next.Total(); t > 0 {
			return t
		}
		return prev.Total()
	}
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

// worstShift finds the largest relative shift between two estimate
// vectors; floor bounds the denominator so a zero baseline still yields
// a finite attribution.
func worstShift(prev, cur []float64, floor float64) (float64, int) {
	worst, worstK := 0.0, -1
	for k := range cur {
		base := prev[k]
		if base <= 0 {
			base = floor
		}
		rel := (cur[k] - prev[k]) / base
		if rel < 0 {
			rel = -rel
		}
		if rel > worst {
			worst, worstK = rel, k
		}
	}
	return worst, worstK
}

// linkShiftFloor bounds the relative-shift denominator for transfer
// costs: a fraction of a millisecond, so a link cost appearing from
// nothing registers as a very large shift.
const linkShiftFloor = 1e-4

// attributeTriggerLink names the node whose s_k estimate moved most
// (relatively) between two decisions — or, when the transfer-cost
// estimates shifted more than any speed estimate did, the node whose
// link did: the move is then attributed to the link, not the node's
// compute rate. A decision whose predecessor carried no link costs
// compares against zeros — the first link-aware reallocation after a
// bandwidth collapse is exactly the move that must read "link node=K".
func attributeTriggerLink(prevSpeeds, speeds, prevLink, link []float64) string {
	if len(prevSpeeds) != len(speeds) {
		return "node-set-changed"
	}
	sWorst, sK := worstShift(prevSpeeds, speeds, 1)
	lWorst, lK := 0.0, -1
	if len(link) > 0 {
		pl := prevLink
		if len(pl) != len(link) {
			pl = make([]float64, len(link))
		}
		lWorst, lK = worstShift(pl, link, linkShiftFloor)
	}
	if lK >= 0 && lWorst >= 1e-9 && lWorst > sWorst {
		sign := "+"
		if lK < len(prevLink) && link[lK] < prevLink[lK] {
			sign = "-"
		}
		return fmt.Sprintf("link node=%d %s%.0f%%", lK, sign, lWorst*100)
	}
	if sK < 0 || sWorst < 1e-9 {
		return "speed-drift"
	}
	sign := "+"
	if speeds[sK] < prevSpeeds[sK] {
		sign = "-"
	}
	return fmt.Sprintf("speed node=%d %s%.0f%%", sK, sign, sWorst*100)
}
