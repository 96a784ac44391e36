package sched

import (
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestAuditRecordsDecisions drives a Driver through a first plan, a
// repeat and a reallocation, and reads the decisions it audited.
func TestAuditRecordsDecisions(t *testing.T) {
	a := NewAudit(8, nil)
	// γ = 1 makes each s_k the last image's n_k, so the test sets the
	// speeds outright.
	d := NewDriver(2, 1, 4, a)
	both := []bool{true, true}
	t0 := time.Unix(1000, 0)
	plan := func(sec int, image uint32) {
		t.Helper()
		if _, err := d.Plan(t0.Add(time.Duration(sec)*time.Second), image, 12, both, 0, nil); err != nil {
			t.Fatal(err)
		}
	}

	// First allocation: audited as "initial", no predecessor.
	plan(0, 1)
	// Identical split: a steady state, not a decision worth auditing.
	d.Settle([]int{4, 4})
	plan(1, 2)
	// Node 1 slowed to half speed, the split shifts 2 tiles off it.
	d.Settle([]int{4, 2})
	plan(2, 3)

	ds := a.Decisions()
	if len(ds) != 2 {
		t.Fatalf("audited %d decisions, want 2 (initial + reallocation): %+v", len(ds), ds)
	}

	first := ds[0]
	if first.Trigger != "initial" || first.Prev != nil || first.Image != 1 || !first.At.Equal(t0) {
		t.Fatalf("initial decision wrong: %+v", first)
	}
	if first.Seq != 1 || !slices.Equal(first.Next, Allocation{6, 6}) || first.ObjBefore != 1.5 || first.ObjAfter != 1.5 {
		t.Fatalf("initial decision %+v, want seq 1, split [6 6], objective 1.5", first)
	}

	re := ds[1]
	if re.Image != 3 || re.TilesMoved != 2 || !re.At.Equal(t0.Add(2*time.Second)) {
		t.Fatalf("reallocation record wrong: %+v", re)
	}
	if !slices.Equal(re.Prev, Allocation{6, 6}) || !slices.Equal(re.Next, Allocation{8, 4}) {
		t.Fatalf("reallocation %v → %v, want [6 6] → [8 4]", re.Prev, re.Next)
	}
	if re.Trigger != "speed node=1 -50%" {
		t.Fatalf("trigger attribution %q, want node=1 -50%%", re.Trigger)
	}
	// Old split {6,6} under new speeds {4,2}: bottleneck 6/2 = 3.
	// New split {8,4}: bottleneck 8/4 = 4/2 = 2. The audit shows the payoff.
	if re.ObjBefore != 3 || re.ObjAfter != 2 {
		t.Fatalf("objective delta %v → %v, want 3 → 2", re.ObjBefore, re.ObjAfter)
	}
	if !slices.Equal(re.Speeds, []float64{4, 2}) {
		t.Fatalf("speeds not captured: %v", re.Speeds)
	}
}

func TestAuditServeHTTP(t *testing.T) {
	a := NewAudit(4, nil)
	a.record(Decision{Image: 7, Next: Allocation{4}})

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
	a := NewAudit(3, nil)
	for i := 0; i < 7; i++ {
		a.record(Decision{Image: uint32(i)})
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
	if ds[len(ds)-1].Seq != 7 || ds[len(ds)-1].Image != 6 {
		t.Fatalf("latest %+v, want seq 7 for image 6", ds[len(ds)-1])
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
}

func TestTilesMovedAndTrigger(t *testing.T) {
	if got := tilesMoved(Allocation{8, 8}, Allocation{12, 4}); got != 4 {
		t.Fatalf("tilesMoved = %d, want 4", got)
	}
	if got := attributeTrigger([]float64{2, 2}, []float64{2, 2}); got != "speed-drift" {
		t.Fatalf("no-drift trigger %q", got)
	}
	if got := attributeTrigger([]float64{2, 4}, []float64{2, 6}); !strings.Contains(got, "node=1 +50%") {
		t.Fatalf("speed-up trigger %q", got)
	}
}
