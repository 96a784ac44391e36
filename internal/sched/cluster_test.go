package sched

import (
	"math"
	"testing"
)

func TestFairShares(t *testing.T) {
	s := FairShares(4, 2)
	if len(s) != 2 || len(s[0]) != 4 {
		t.Fatalf("shape = %dx%d, want 2x4", len(s), len(s[0]))
	}
	for r := range s {
		for k := range s[r] {
			// Even split modulo the affinity tilt: node k leans to
			// replica k mod 2, and every node's column sums to 1.
			want := 0.5 * (1 - AffinityTilt)
			if k%2 == r {
				want = 0.5 * (1 + AffinityTilt)
			}
			if math.Abs(s[r][k]-want) > 1e-12 {
				t.Fatalf("share[%d][%d] = %v, want %v", r, k, s[r][k], want)
			}
		}
	}
	for k := 0; k < 4; k++ {
		if sum := s[0][k] + s[1][k]; math.Abs(sum-1) > 1e-12 {
			t.Fatalf("node %d shares sum to %v, want 1", k, sum)
		}
	}
	if FairShares(0, 2) != nil || FairShares(2, 0) != nil {
		t.Fatal("degenerate inputs should return nil")
	}
}

func TestFairSharesSingleReplicaUntilted(t *testing.T) {
	s := FairShares(3, 1)
	for k := range s[0] {
		if s[0][k] != 1 {
			t.Fatalf("single replica share[0][%d] = %v, want 1", k, s[0][k])
		}
	}
}

func TestFairSharesAffinityDisjoint(t *testing.T) {
	// The point of the tilt: with N replicas over N·m nodes, each
	// replica's strictly-largest shares land on a disjoint node subset,
	// so symmetric replicas break their argmin ties apart.
	s := FairShares(4, 2)
	for k := 0; k < 4; k++ {
		lean := k % 2
		other := 1 - lean
		if s[lean][k] <= s[other][k] {
			t.Fatalf("node %d should lean to replica %d: %v vs %v", k, lean, s[lean][k], s[other][k])
		}
	}
}
