package sched

// Cluster shares. With N Central replicas driving one Conv pool, every
// replica runs Algorithm 3 against share[k]·s_k instead of s_k. Only
// the shares' ratios across one replica's nodes matter: Algorithm 3's
// split is unchanged when every speed is multiplied by one factor
// (TestAllocateScaleInvariant), so a share that is the same on every
// node routes nothing differently. What the shares carry is the
// affinity tilt below; internal/core installs them once per replica
// when it builds a Cluster.

// AffinityTilt skews each node's split slightly toward one replica
// (node k leans to replica k mod N). Without it the replicas are
// symmetric: with identical speed estimates every replica's Algorithm 3
// resolves its argmin ties to the same nodes, they herd onto one
// subset of the pool, and the shared per-node device serializes them
// while the rest of the pool idles — and because Algorithm 2 folds in
// received-tile *counts*, the idle nodes' estimates decay toward zero
// and the herd finds them again only through probation revival (see
// Driver.Plan), a few tiles per interval. A deterministic ±10% tilt breaks
// the tie from the first image, spreading replicas across disjoint
// node subsets when tiles-per-image < nodes, while perturbing the
// actual capacity split too little to matter when they must overlap.
const AffinityTilt = 0.10

// FairShares splits every node evenly across replicas, tilted by
// AffinityTilt toward replica k mod N and renormalized so each node's
// column sums to 1. A single replica owns every node outright. The
// result is indexed [replica][node].
func FairShares(nodes, replicas int) [][]float64 {
	if nodes <= 0 || replicas <= 0 {
		return nil
	}
	out := make([][]float64, replicas)
	for r := range out {
		out[r] = make([]float64, nodes)
		for k := range out[r] {
			out[r][k] = 1 / float64(replicas)
		}
	}
	if replicas == 1 {
		return out
	}
	for k := 0; k < nodes; k++ {
		sum := 0.0
		for r := 0; r < replicas; r++ {
			if k%replicas == r {
				out[r][k] *= 1 + AffinityTilt
			} else {
				out[r][k] *= 1 - AffinityTilt
			}
			sum += out[r][k]
		}
		for r := 0; r < replicas; r++ {
			out[r][k] /= sum
		}
	}
	return out
}
