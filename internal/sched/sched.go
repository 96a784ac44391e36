// Package sched implements ADCNN's runtime scheduling logic: the
// statistics-collection process of paper Algorithm 2 (an exponentially
// weighted running mean of how many tile results each Conv node returned
// within the deadline) and the input-tile allocation of Algorithm 3 (a
// greedy minimizer of max_k x_k/s_k subject to per-node storage).
package sched

import (
	"errors"
	"fmt"
	"math/rand"
)

// Stats tracks the per-node throughput estimate s_k (Algorithm 2).
type Stats struct {
	// Gamma is the decay parameter γ: s_k ← (1−γ)s_k + γ n_k.
	Gamma   float64
	s       []float64
	initial float64
}

// NewStats creates the tracker with an initial estimate per node. The
// paper starts nodes as equals; initial > 0 avoids a cold-start where no
// node ever receives work.
func NewStats(nodes int, gamma float64, initial float64) *Stats {
	if nodes < 1 {
		panic("sched: need at least one node")
	}
	if gamma <= 0 || gamma > 1 {
		panic(fmt.Sprintf("sched: gamma %v out of (0,1]", gamma))
	}
	st := &Stats{Gamma: gamma, s: make([]float64, nodes), initial: initial}
	for i := range st.s {
		st.s[i] = initial
	}
	return st
}

// Revive restores node k's estimate to at least the cold-start value.
// A node that was dead (or throttled to zero) receives no tiles, so its
// EWMA can never recover on its own; a reconnecting node calls this to
// re-enter the allocation as an equal and let Algorithm 2 re-measure it.
func (st *Stats) Revive(k int) {
	if st.s[k] < st.initial {
		st.s[k] = st.initial
	}
}

// Nodes returns the node count.
func (st *Stats) Nodes() int { return len(st.s) }

// Update folds one image's per-node result counts n_k into the running
// means (Algorithm 2 line 6). counts holds one entry per node.
func (st *Stats) Update(counts []int) {
	if len(counts) != len(st.s) {
		panic(fmt.Sprintf("sched: %d counts for %d nodes", len(counts), len(st.s)))
	}
	for k, n := range counts {
		st.s[k] = (1-st.Gamma)*st.s[k] + st.Gamma*float64(n)
	}
}

// Speeds returns a copy of the current estimates.
func (st *Stats) Speeds() []float64 {
	out := make([]float64, len(st.s))
	copy(out, st.s)
	return out
}

// Speed returns node k's estimate.
func (st *Stats) Speed(k int) float64 { return st.s[k] }

// Allocation is the number of tiles assigned to each node.
type Allocation []int

// Total returns the number of tiles allocated.
func (a Allocation) Total() int {
	n := 0
	for _, x := range a {
		n += x
	}
	return n
}

// Bottleneck returns max_k x_k/s_k, the objective of Equation (1).
func (a Allocation) Bottleneck(speeds []float64) float64 {
	worst := 0.0
	for k, x := range a {
		if x == 0 {
			continue
		}
		if speeds[k] <= 0 {
			return inf
		}
		if v := float64(x) / speeds[k]; v > worst {
			worst = v
		}
	}
	return worst
}

const inf = 1e300

// ErrNoCapacity is returned when tiles cannot all be placed.
var ErrNoCapacity = errors.New("sched: not enough node capacity for all tiles")

// Allocate implements Algorithm 3: place tiles one by one on the node
// whose (x_k+1)/s_k is smallest among nodes with remaining storage,
// breaking ties randomly via rng (deterministically by index when rng is
// nil). tileBytes and capacities enforce the constraint M·x_k ≤ H_k;
// pass nil capacities for unlimited storage. Nodes with s_k = 0 (failed
// per the paper) receive nothing.
func Allocate(tiles int, speeds []float64, tileBytes int64, capacities []int64, rng *rand.Rand) (Allocation, error) {
	if tiles < 0 {
		return nil, errors.New("sched: negative tile count")
	}
	k := len(speeds)
	if k == 0 {
		return nil, errors.New("sched: no nodes")
	}
	x := make(Allocation, k)
	// ties holds the nodes sharing the best cost, recorded only when rng
	// breaks them; a cluster of up to len(tieBuf) nodes keeps it on the
	// stack, so the answer is the call's one allocation.
	var tieBuf [16]int
	ties := tieBuf[:0]
	for t := 0; t < tiles; t++ {
		best := -1
		bestCost := inf
		for i := 0; i < k; i++ {
			limit := tiles
			if capacities != nil && tileBytes > 0 {
				limit = int(capacities[i] / tileBytes)
			}
			if speeds[i] <= 0 || x[i] >= limit {
				continue
			}
			cost := float64(x[i]+1) / speeds[i]
			switch {
			case cost < bestCost:
				bestCost, best = cost, i
				if rng != nil {
					ties = append(ties[:0], i)
				}
			case cost == bestCost && rng != nil:
				ties = append(ties, i)
			}
		}
		if best < 0 {
			return nil, ErrNoCapacity
		}
		if len(ties) > 1 {
			best = ties[rng.Intn(len(ties))]
		}
		x[best]++
	}
	return x, nil
}
