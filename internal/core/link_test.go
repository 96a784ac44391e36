package core

import (
	"testing"
	"time"
)

// TestLinkStateTracksBandwidthCollapse pins the behaviour the bandwidth
// scenario of TestChaosScenarios relies on: after a collapse the
// seconds-per-byte EWMA with attack α must land within 25% of the
// throttled rate in 3 samples, where a bytes-per-second EWMA would still be orders of
// magnitude high.
func TestLinkStateTracksBandwidthCollapse(t *testing.T) {
	var l linkState
	const tile = 1 << 20
	for i := 0; i < 10; i++ {
		l.observe(tile, tile, int64(time.Millisecond), int64(time.Millisecond))
	}
	up, down, _ := l.snapshot()
	healthy := float64(tile) / 1e-3
	for dir, v := range []float64{up, down} {
		if v < 0.75*healthy || v > 1.25*healthy {
			t.Fatalf("healthy estimate[%d] %.0f B/s, want ~%.0f", dir, v, healthy)
		}
	}

	// Collapse: the same tile now takes 10s → ~105 KB/s true rate.
	for i := 0; i < 3; i++ {
		l.observe(tile, 0, int64(10*time.Second), 0)
	}
	up, _, _ = l.snapshot()
	target := float64(tile) / 10
	if up < 0.75*target || up > 1.25*target {
		t.Fatalf("collapsed uplink estimate %.0f B/s, want within 25%% of %.0f", up, target)
	}

	// Recovery decays more slowly than collapse attacks, but must still
	// converge: a run of healthy samples brings the estimate back.
	for i := 0; i < 50; i++ {
		l.observe(tile, 0, int64(time.Millisecond), 0)
	}
	up, _, _ = l.snapshot()
	if up < 0.75*healthy {
		t.Fatalf("post-heal estimate %.0f B/s stuck low, want ~%.0f", up, healthy)
	}
}

func TestLinkStateMinSamplesAndReset(t *testing.T) {
	var l linkState
	for i := 0; i < linkMinSamples-1; i++ {
		l.observe(1024, 1024, int64(time.Millisecond), int64(time.Millisecond))
	}
	if up, down, _ := l.snapshot(); up != 0 || down != 0 {
		t.Fatalf("rates before %d samples = (%f, %f), want unknown", linkMinSamples, up, down)
	}
	l.observe(1024, 1024, int64(time.Millisecond), int64(time.Millisecond))
	if up, down, _ := l.snapshot(); up <= 0 || down <= 0 {
		t.Fatalf("converged estimate missing: (%f, %f)", up, down)
	}
	l.reset()
	if up, down, _ := l.snapshot(); up != 0 || down != 0 {
		t.Fatal("reset must clear the estimates")
	}
}

func TestLinkStateDurationFloor(t *testing.T) {
	var l linkState
	for i := 0; i < linkMinSamples; i++ {
		l.observe(1<<20, 0, 1, 0) // 1ns transfer: clamped by the floor, not ∞
	}
	up, _, _ := l.snapshot()
	ceil := float64(1<<20) / linkMinDur.Seconds()
	if up <= 0 || up > ceil+1 {
		t.Fatalf("floored estimate %.0f B/s, want in (0, %.0f]", up, ceil)
	}
	if _, _, samples := l.snapshot(); samples != linkMinSamples {
		t.Fatalf("sample count = %d, want %d", samples, linkMinSamples)
	}
}
