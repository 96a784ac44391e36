package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"adcnn/internal/telemetry"
)

// TestClusterBenchSmall runs the full control-plane sharding benchmark
// at a reduced image count — live TCP pool, both closed-loop passes and
// the imbalance pass — and checks the report's shape plus loose
// versions of the acceptance gates. The strict gates (>= 1.7x speedup,
// <= 25% p99 spread) are enforced on the committed BENCH_cluster.json,
// which is produced by a full-length non-race run; here the thresholds
// are slack so the race detector's ~5x slowdown cannot flake CI.
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
	if len(rep.Imbalance.PerOriginP99Ms) != 2 {
		t.Fatalf("imbalance p99s = %v, want one per origin", rep.Imbalance.PerOriginP99Ms)
	}
	for o, p99 := range rep.Imbalance.PerOriginP99Ms {
		if p99 <= 0 {
			t.Fatalf("origin %d p99 = %v, want > 0", o, p99)
		}
	}
	// Loose spread ceiling: without stealing, the overloaded origin's
	// queue grows without bound and the spread lands in the hundreds of
	// percent — any bounded figure means the steal path engaged.
	if rep.Imbalance.P99SpreadPct < 0 || rep.Imbalance.P99SpreadPct > 150 {
		t.Fatalf("p99 spread %.1f%%, want within [0, 150]", rep.Imbalance.P99SpreadPct)
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
