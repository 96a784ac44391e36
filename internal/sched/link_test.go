package sched

import (
	"math"
	"strings"
	"testing"

	"adcnn/internal/telemetry"
)

func TestEffectiveSpeedsMath(t *testing.T) {
	// s'_k = s_k / (1 + s_k·xfer_k/ref): s=10, xfer=0.1s, ref=1s → 5.
	eff := EffectiveSpeeds([]float64{10, 10}, []float64{0, 0.1}, 1)
	if eff == nil {
		t.Fatal("expected derated speeds")
	}
	if eff[0] != 10 {
		t.Fatalf("node without transfer cost changed: %v", eff[0])
	}
	if want := 5.0; math.Abs(eff[1]-want) > 1e-9 {
		t.Fatalf("eff[1] = %v, want %v", eff[1], want)
	}
}

func TestEffectiveSpeedsGates(t *testing.T) {
	if EffectiveSpeeds([]float64{1}, nil, 1) != nil {
		t.Fatal("no transfer costs must return nil")
	}
	if EffectiveSpeeds([]float64{1}, []float64{0.5}, 0) != nil {
		t.Fatal("uncalibrated reference must return nil")
	}
	if EffectiveSpeeds([]float64{1, 2}, []float64{0, 0}, 1) != nil {
		t.Fatal("all-unknown transfer costs must return nil")
	}
	if EffectiveSpeeds([]float64{0}, []float64{0.5}, 1) != nil {
		t.Fatal("a dead node alone must not enable derating")
	}
}

// TestEffectiveSpeedsShiftAllocation: two equally fast nodes, one behind
// a slow link — the greedy must move tiles off the slow-link node once
// the transfer cost is folded in.
func TestEffectiveSpeedsShiftAllocation(t *testing.T) {
	speeds := []float64{10, 10}
	base, err := Allocate(16, speeds, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eff := EffectiveSpeeds(speeds, []float64{0, 0.3}, 1)
	shifted, err := Allocate(16, eff, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shifted[0] <= base[0] {
		t.Fatalf("link cost on node 1 did not shift tiles: base %v, link-aware %v", base, shifted)
	}
}

func TestAttributeTriggerLink(t *testing.T) {
	steady := []float64{10, 10}
	// A link cost appearing on node 1 with steady speeds → link blame,
	// even against a predecessor that carried no link costs at all.
	trig := attributeTriggerLink(steady, steady, nil, []float64{0, 0.5})
	if !strings.HasPrefix(trig, "link node=1 +") {
		t.Fatalf("new link cost attributed as %q", trig)
	}
	// A dominant speed shift outranks a small link wobble.
	trig = attributeTriggerLink(steady, []float64{10, 5}, []float64{0.1, 0.1}, []float64{0.1, 0.105})
	if !strings.HasPrefix(trig, "speed node=1 -") {
		t.Fatalf("speed collapse attributed as %q", trig)
	}
	// A link recovery (cost shrinking) blames the link with a minus sign.
	trig = attributeTriggerLink(steady, steady, []float64{0, 0.5}, []float64{0, 0.1})
	if !strings.HasPrefix(trig, "link node=1 -") {
		t.Fatalf("link recovery attributed as %q", trig)
	}
	// Without link inputs the classic attribution is unchanged.
	if got := attributeTriggerLink(steady, steady, nil, nil); got != "speed-drift" {
		t.Fatalf("steady speeds attributed as %q", got)
	}
	if got := attributeTriggerLink([]float64{10}, steady, nil, nil); got != "node-set-changed" {
		t.Fatalf("length mismatch attributed as %q", got)
	}
}

// TestMonitorObserveAllocationLinkAware: a link-aware decision must land in
// the audit ring with the effective speeds, the transfer costs, and a
// link-attributed trigger.
func TestMonitorObserveAllocationLinkAware(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMonitor(reg, "")
	m.AttachAudit(NewAudit(0, nil))

	speeds := []float64{10, 10}
	m.ObserveAllocation(Allocation{8, 8}, speeds, nil, nil, 1)

	linkSecs := []float64{0, 0.3}
	eff := EffectiveSpeeds(speeds, linkSecs, 1)
	m.ObserveAllocation(Allocation{12, 4}, speeds, eff, linkSecs, 2)

	ds := m.Audit().Decisions()
	if len(ds) != 2 {
		t.Fatalf("audit holds %d decisions, want 2", len(ds))
	}
	d := ds[1]
	if !strings.HasPrefix(d.Trigger, "link node=1") {
		t.Fatalf("trigger %q, want link attribution for node 1", d.Trigger)
	}
	if len(d.EffSpeeds) != 2 || len(d.LinkSecs) != 2 {
		t.Fatalf("decision missing link context: eff=%v link=%v", d.EffSpeeds, d.LinkSecs)
	}
	if d.TilesMoved != 4 {
		t.Fatalf("tiles moved = %d, want 4", d.TilesMoved)
	}
}
