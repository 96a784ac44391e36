package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"adcnn/internal/telemetry"
)

// TestClusterBenchSmall runs the full control-plane sharding benchmark
// at a reduced image count — live TCP pool, both closed-loop passes —
// and checks the report's shape plus a loose version of the acceptance
// gate. The strict gate (>= 1.7x speedup) is enforced on the committed
// BENCH_cluster.json, which is produced by a full-length non-race run;
// here the threshold is slack so the race detector's ~5x slowdown
// cannot flake CI.
func TestClusterBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live benchmark")
	}
	rep, err := ClusterBench(24)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Single.Replicas != 1 || rep.Dual.Replicas != 2 {
		t.Fatalf("replica counts = %d/%d, want 1/2", rep.Single.Replicas, rep.Dual.Replicas)
	}
	if rep.Single.ThroughputIPS <= 0 || rep.Dual.ThroughputIPS <= 0 {
		t.Fatalf("throughput not measured: single %v dual %v",
			rep.Single.ThroughputIPS, rep.Dual.ThroughputIPS)
	}
	// Loose scaling floor: a second replica over the shared pool must
	// help materially even under the race detector.
	if rep.SpeedupX < 1.2 {
		t.Fatalf("dual-replica speedup %.2fx, want >= 1.2x", rep.SpeedupX)
	}
	path := filepath.Join(t.TempDir(), "BENCH_cluster.json")
	if err := telemetry.WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ClusterBenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.SpeedupX != rep.SpeedupX || back.Nodes != rep.Nodes {
		t.Fatalf("round-trip mismatch: %+v vs %+v", back, rep)
	}
}
