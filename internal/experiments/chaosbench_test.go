package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestChaosBenchReducedSchedule runs the crash, clock-skew and
// bandwidth drills at reduced window sizes — the schedules that
// exercise the most concurrency-sensitive machinery (session
// teardown/reconnect, the offset estimator, the link estimator under a
// throttled socket), which is what a race-enabled CI pass is for. The
// full four-drill schedule runs un-instrumented in the chaos CI job via
// `adcnn-bench -exp chaos`.
func TestChaosBenchReducedSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-cluster drill schedule")
	}
	rep, err := ChaosBench(ChaosBenchConfig{
		FastWindow: 250 * time.Millisecond,
		SlowWindow: time.Second,
		// Race instrumentation plus a contended CI host stretch every
		// timeline; the drills assert behavior, not wall-clock budgets.
		Timeout: 20 * time.Second,
		Drills:  []string{"crash", "skew", "bandwidth"},
	})
	if err != nil {
		t.Fatalf("ChaosBench: %v", err)
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	t.Logf("report:\n%s", sb.String())
	for _, d := range rep.Drills {
		for _, c := range d.Checks {
			if !c.OK {
				t.Errorf("drill %s: check %s failed: %s", d.Drill, c.Name, c.Detail)
			}
		}
		if d.FailedImages != 0 {
			t.Errorf("drill %s: %d images failed", d.Drill, d.FailedImages)
		}
	}
	if !rep.Pass {
		t.Error("reduced chaos schedule did not pass")
	}
}

// TestSlowNodeDrillDetectsInjectedSlowNode runs the slow-node drill at
// reduced scale and asserts the acceptance criteria: the breach fires
// within two fast-window periods of the injection, the health scorer
// ranks the injected node worst in its compute phase, and the objective
// recovers after the node heals.
//
// The hard invariants (breach fires, flight ring dumps, recovery) must
// hold on every attempt. The two timing-sensitive criteria — detection
// latency and worst-node attribution — get retries, and if every
// attempt shows the healthy nodes scoring anomalous too (the signature
// of an oversubscribed host, e.g. `go test ./...` running every other
// package in parallel beside this one), the run is inconclusive about
// the engine rather than a failure of it, and the test skips.
func TestSlowNodeDrillDetectsInjectedSlowNode(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-cluster drill")
	}
	const attempts = 3
	cfg := ChaosBenchConfig{
		BaseDelay:  2 * time.Millisecond,
		FastWindow: 500 * time.Millisecond,
		SlowWindow: 1500 * time.Millisecond,
		Drills:     []string{"slownode"},
	}
	injected := 3 // the last of the default four nodes
	var d ChaosDrillResult
	for i := 0; i < attempts; i++ {
		rep, err := ChaosBench(cfg)
		if err != nil {
			t.Fatalf("ChaosBench: %v", err)
		}
		var sb strings.Builder
		rep.WriteText(&sb)
		t.Logf("attempt %d report:\n%s", i+1, sb.String())
		d = rep.Drills[0]

		// Hard invariants: load can stretch the timeline, but the breach
		// machinery itself must work.
		if d.FailedImages != 0 {
			t.Fatalf("%d images failed during the drill", d.FailedImages)
		}
		if d.BreachAtMs == 0 {
			t.Fatal("SLO never breached after the slow-node injection")
		}
		if d.RecoverAtMs == 0 {
			t.Error("SLO never recovered after the node healed")
		}
		if d.FlightDumps == 0 {
			t.Error("breach should have dumped the flight recorder")
		}
		if d.BaselineP99Ms <= 0 || d.ThresholdMs <= d.BaselineP99Ms {
			t.Errorf("threshold %.2fms should sit above baseline p99 %.2fms",
				d.ThresholdMs, d.BaselineP99Ms)
		}
		if len(d.Transitions) < 2 {
			t.Errorf("expected at least breach+recovery transitions, got %v", d.Transitions)
		}
		if d.WithinTwoFastWin && worstIsInjected(d) {
			return
		}
		t.Logf("attempt %d: detection %.0fms (bound %.0fms), health at breach %v (want node %d worst) — retrying",
			i+1, d.DetectionMs, 2*ms(cfg.FastWindow), d.HealthAtBreach, injected)
	}
	// Every attempt missed the timing/attribution bar. If the healthy
	// nodes also scored anomalous, the host was contended and the run
	// says nothing about the engine.
	anomalousHealthy := 0
	for n, h := range d.HealthAtBreach {
		if n != injected && h > 1 {
			anomalousHealthy++
		}
	}
	if anomalousHealthy >= 2 {
		t.Skipf("host too contended for timing assertions: %d healthy nodes scored anomalous at breach (scores %v)",
			anomalousHealthy, d.HealthAtBreach)
	}
	if !d.WithinTwoFastWin {
		t.Errorf("detection latency %.0fms exceeds two fast windows (%.0fms)",
			d.DetectionMs, 2*ms(cfg.FastWindow))
	}
	if !worstIsInjected(d) {
		t.Errorf("worst-health node at breach is not injected node %d (scores %v)",
			injected, d.HealthAtBreach)
	}
}

// worstIsInjected reports whether the drill's health-blame check held:
// at the breach the tracker ranked the injected node worst, and blamed
// its compute phase.
func worstIsInjected(d ChaosDrillResult) bool {
	for _, c := range d.Checks {
		if c.Name == "health-blame" {
			return c.OK
		}
	}
	return false
}
