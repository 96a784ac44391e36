package sched

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"adcnn/internal/telemetry"
)

func TestAuditRecordsDecisions(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMonitor(reg, "")
	a := NewAudit(8, nil)
	m.AttachAudit(a)
	if m.Audit() != a {
		t.Fatal("Audit accessor lost the attached ring")
	}

	// First allocation: audited as "initial", no predecessor.
	m.ObserveAllocation(Allocation{8, 8}, []float64{4, 4}, nil, nil, 1)
	// Identical split: a steady state, not a decision worth auditing.
	m.ObserveAllocation(Allocation{8, 8}, []float64{4, 4}, nil, nil, 2)
	// Node 1 slowed to half speed, scheduler shifted 4 tiles off it.
	m.ObserveAllocation(Allocation{12, 4}, []float64{4, 2}, nil, nil, 3)

	ds := a.Decisions()
	if len(ds) != 2 {
		t.Fatalf("audited %d decisions, want 2 (initial + reallocation): %+v", len(ds), ds)
	}

	first := ds[0]
	if first.Trigger != "initial" || first.Prev != nil || first.Image != 1 {
		t.Fatalf("initial decision wrong: %+v", first)
	}
	if first.Seq != 1 {
		t.Fatalf("seq %d, want 1", first.Seq)
	}

	re := ds[1]
	if re.Image != 3 || re.TilesMoved != 4 {
		t.Fatalf("reallocation record wrong: %+v", re)
	}
	if !strings.Contains(re.Trigger, "node=1") || !strings.Contains(re.Trigger, "-50%") {
		t.Fatalf("trigger attribution %q, want node=1 -50%%", re.Trigger)
	}
	// Old split {8,8} under new speeds {4,2}: bottleneck 8/2 = 4.
	// New split {12,4}: bottleneck 12/4 = 3. The audit shows the payoff.
	if re.ObjBefore != 4 || re.ObjAfter != 3 {
		t.Fatalf("objective delta %v → %v, want 4 → 3", re.ObjBefore, re.ObjAfter)
	}
	if len(re.Speeds) != 2 || re.Speeds[1] != 2 {
		t.Fatalf("speeds not captured: %v", re.Speeds)
	}
}

func TestAuditServeHTTP(t *testing.T) {
	m := NewMonitor(telemetry.NewRegistry(), "")
	a := NewAudit(4, nil)
	m.AttachAudit(a)
	m.ObserveAllocation(Allocation{4}, []float64{2}, nil, nil, 7)

	rr := httptest.NewRecorder()
	a.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/sched", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var page struct {
		Recorded  uint64     `json:"decisions_recorded"`
		Capacity  int        `json:"capacity"`
		Decisions []Decision `json:"decisions"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if page.Recorded != 1 || page.Capacity != 4 || len(page.Decisions) != 1 {
		t.Fatalf("page: %+v", page)
	}
	if page.Decisions[0].Image != 7 {
		t.Fatalf("decision image %d, want 7", page.Decisions[0].Image)
	}
}

func TestAuditRingWraps(t *testing.T) {
	m := NewMonitor(telemetry.NewRegistry(), "")
	a := NewAudit(3, nil)
	m.AttachAudit(a)
	// Alternate splits so every allocation is a fresh decision.
	for i := 0; i < 7; i++ {
		x := Allocation{10 + i, 6 - i%2}
		m.ObserveAllocation(x, []float64{2, float64(1 + i)}, nil, nil, uint32(i))
	}
	ds := a.Decisions()
	if len(ds) != 3 {
		t.Fatalf("ring holds %d, want capacity 3", len(ds))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].Seq != ds[i-1].Seq+1 {
			t.Fatalf("sequence gap: %+v", ds)
		}
	}
	if ds[len(ds)-1].Seq != 7 {
		t.Fatalf("latest seq %d, want 7", ds[len(ds)-1].Seq)
	}
}

func TestAuditNilSafe(t *testing.T) {
	var a *Audit
	a.record(Decision{})
	if a.Decisions() != nil {
		t.Fatal("nil audit must return nil decisions")
	}
	rr := httptest.NewRecorder()
	a.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/sched", nil))
	if rr.Body.String() != "{}\n" {
		t.Fatalf("nil audit body %q", rr.Body.String())
	}
	// Monitor without an attached audit must not record or panic.
	m := NewMonitor(telemetry.NewRegistry(), "")
	m.ObserveAllocation(Allocation{1}, []float64{1}, nil, nil, 0)
	if m.Audit() != nil {
		t.Fatal("unattached monitor reports an audit")
	}
}

func TestTilesMovedAndTrigger(t *testing.T) {
	if got := tilesMoved(Allocation{8, 8}, Allocation{12, 4}); got != 4 {
		t.Fatalf("tilesMoved = %d, want 4", got)
	}
	if got := tilesMoved(Allocation{8}, Allocation{4, 4}); got != 8 {
		t.Fatalf("length-mismatch tilesMoved = %d, want total 8", got)
	}
	if got := attributeTriggerLink([]float64{2, 2}, []float64{2, 2}, nil, nil); got != "speed-drift" {
		t.Fatalf("no-drift trigger %q", got)
	}
	if got := attributeTriggerLink([]float64{2}, []float64{2, 2}, nil, nil); got != "node-set-changed" {
		t.Fatalf("node-set trigger %q", got)
	}
	if got := attributeTriggerLink([]float64{2, 4}, []float64{2, 6}, nil, nil); !strings.Contains(got, "node=1 +50%") {
		t.Fatalf("speed-up trigger %q", got)
	}
}
