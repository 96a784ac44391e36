package sched

import (
	"testing"

	"adcnn/internal/telemetry"
)

func TestMonitorPublishesSchedulerState(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMonitor(reg, "")
	speeds := []float64{2, 4}

	m.ObserveSpeeds(speeds)
	if v, ok := reg.Value("adcnn_sched_speed", "1"); !ok || v != 4 {
		t.Fatalf("s_1 = %v (ok=%v), want 4", v, ok)
	}

	a := NewAudit(8, nil)
	m.AttachAudit(a)
	m.ObserveAllocation(Allocation{4, 12}, speeds, 1)
	ds := a.Decisions()
	if len(ds) != 1 || ds[0].ObjAfter != 3 || ds[0].TilesMoved != 0 {
		t.Fatalf("first allocation %+v, want one decision with objective 3 (12 tiles / speed 4), nothing moved", ds)
	}

	// Identical split: no reallocation, nothing recorded.
	m.ObserveAllocation(Allocation{4, 12}, speeds, 2)
	if n := len(a.Decisions()); n != 1 {
		t.Fatalf("identical split recorded: %d decisions, want 1", n)
	}

	// The split moved tiles: one reallocation with the tiles it moved.
	m.ObserveAllocation(Allocation{6, 10}, speeds, 3)
	ds = a.Decisions()
	if len(ds) != 2 || ds[1].TilesMoved != 2 || ds[1].Image != 3 {
		t.Fatalf("changed split %+v, want a second decision moving 2 tiles", ds)
	}
}

// TestMonitorNilIsInert mirrors the runtime contract: instrumentation
// sites carry no nil guards.
func TestMonitorNilIsInert(t *testing.T) {
	var m *Monitor
	m.ObserveSpeeds([]float64{1})
	m.ObserveAllocation(Allocation{1}, []float64{1}, 0)
}
