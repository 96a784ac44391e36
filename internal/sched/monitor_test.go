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

	m.ObserveAllocation(Allocation{4, 12}, speeds, nil, nil, 1)
	if v, _ := reg.Value("adcnn_sched_bottleneck"); v != 3 {
		t.Fatalf("bottleneck = %v, want 3 (12 tiles / speed 4)", v)
	}
	if v, _ := reg.Value("adcnn_sched_allocations_total"); v != 1 {
		t.Fatalf("allocations = %v, want 1", v)
	}
	// The very first allocation has no predecessor: not a reallocation.
	if v, _ := reg.Value("adcnn_sched_realloc_total"); v != 0 {
		t.Fatalf("realloc after first allocation = %v, want 0", v)
	}

	// Identical split: still no reallocation.
	m.ObserveAllocation(Allocation{4, 12}, speeds, nil, nil, 2)
	if v, _ := reg.Value("adcnn_sched_realloc_total"); v != 0 {
		t.Fatalf("realloc after identical split = %v, want 0", v)
	}

	// The split moved tiles: one reallocation event.
	m.ObserveAllocation(Allocation{6, 10}, speeds, nil, nil, 3)
	if v, _ := reg.Value("adcnn_sched_realloc_total"); v != 1 {
		t.Fatalf("realloc after changed split = %v, want 1", v)
	}
	if v, _ := reg.Value("adcnn_sched_allocations_total"); v != 3 {
		t.Fatalf("allocations = %v, want 3", v)
	}
}

// TestMonitorNilIsInert mirrors the runtime contract: instrumentation
// sites carry no nil guards.
func TestMonitorNilIsInert(t *testing.T) {
	var m *Monitor
	m.ObserveSpeeds([]float64{1})
	m.ObserveAllocation(Allocation{1}, []float64{1}, nil, nil, 0)
}
