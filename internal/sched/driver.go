package sched

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Plan is one allocation decision and the inputs it was computed from.
type Plan struct {
	// Alloc is the Algorithm 3 split: tiles per node.
	Alloc Allocation
	// Speeds are the Algorithm 2 estimates the split was computed from,
	// zero for nodes that are not alive.
	Speeds []float64
	// Revived lists the starved-but-alive nodes this plan re-admitted on
	// probation (see Driver.Plan).
	Revived []int
}

// Driver is the whole allocation policy around Algorithms 2 and 3: the
// s_k statistics and probation revival of starved nodes. The live Central and the virtual-time Sim run the same
// Driver; the only thing that differs between them is where the time
// comes from, so time is an argument (Plan's now) and the Driver never
// reads a clock. That also
// makes the policy a pure function of the call sequence: a test can
// drive thousands of schedules through it without a socket or a sleep.
//
// All methods are safe for concurrent use.
type Driver struct {
	mu    sync.Mutex
	stats *Stats

	// audit, when non-nil, receives every plan whose split is the first
	// or differs from the previous plan's; last and lastSpeeds are that
	// previous plan's split and speeds.
	audit      *Audit
	last       Allocation
	lastSpeeds []float64

	// probation timestamps each node's last probation revival (zero =
	// never); see probationRevives.
	probation []time.Time
}

// NewDriver creates the policy for a fixed set of nodes Conv nodes.
// gamma is Algorithm 2's decay and initial the cold-start estimate (see
// NewStats). audit, when non-nil, records every reallocation (see
// Plan).
func NewDriver(nodes int, gamma, initial float64, audit *Audit) *Driver {
	return &Driver{stats: NewStats(nodes, gamma, initial), audit: audit, probation: make([]time.Time, nodes)}
}

// Revive restores node k's estimate to at least the cold-start value: a
// reconnected node re-enters the allocation as an equal (the EWMA of a
// dead node decays toward zero and would otherwise never assign it work
// again).
func (d *Driver) Revive(k int) {
	d.mu.Lock()
	d.stats.Revive(k)
	d.mu.Unlock()
}

// Speeds returns a copy of the raw Algorithm 2 estimates (no
// liveness).
func (d *Driver) Speeds() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats.Speeds()
}

// Plan is the input-partition decision for one image of tiles tiles at
// time now: probation first revives any starved-but-alive node that is
// due, then nodes that are not alive get nothing and the rest share the
// tiles by Algorithm 3 on their Algorithm 2 speeds. alive
// holds one entry per node; tileBytes and caps are Algorithm 3's
// storage constraint (nil caps = unlimited). When the Driver has an
// audit ring, the first plan and every plan that changes the split are
// recorded there as a Decision stamped with now and image.
//
// now only has to be monotone across calls on one Driver — wall time
// for the live runtime, virtual time for the simulator.
func (d *Driver) Plan(now time.Time, image uint32, tiles int, alive []bool, tileBytes int64, caps []int64) (Plan, error) {
	if len(alive) != d.stats.Nodes() {
		return Plan{}, fmt.Errorf("sched: %d liveness flags for %d nodes", len(alive), d.stats.Nodes())
	}
	d.mu.Lock()
	p := Plan{Revived: d.probationRevives(now, alive)}
	p.Speeds = d.aliveSpeeds(alive)
	d.mu.Unlock()
	var err error
	if p.Alloc, err = Allocate(tiles, p.Speeds, tileBytes, caps, nil); err != nil {
		return p, err
	}
	if d.audit != nil {
		d.mu.Lock()
		dec := d.decide(now, image, p)
		d.mu.Unlock()
		if dec != nil {
			// Outside d.mu: the ring may log through the caller's logger.
			d.audit.record(*dec)
		}
	}
	return p, nil
}

// decide returns the audit record for p when p is the first plan or
// moved tiles since the previous one: its speeds, the split it
// replaced, the objective before and after, the tiles moved and the
// node whose estimate shifted most. Callers hold d.mu.
func (d *Driver) decide(now time.Time, image uint32, p Plan) *Decision {
	var dec *Decision
	if d.last == nil || !slices.Equal(d.last, p.Alloc) {
		dec = &Decision{
			At: now, Image: image,
			Speeds:   slices.Clone(p.Speeds),
			Next:     slices.Clone(p.Alloc),
			ObjAfter: p.Alloc.Bottleneck(p.Speeds),
		}
		if d.last == nil {
			dec.ObjBefore, dec.Trigger = dec.ObjAfter, "initial"
		} else {
			dec.Prev = slices.Clone(d.last)
			dec.ObjBefore = dec.Prev.Bottleneck(p.Speeds)
			dec.TilesMoved = tilesMoved(dec.Prev, p.Alloc)
			dec.Trigger = attributeTrigger(d.lastSpeeds, p.Speeds)
		}
	}
	d.last = append(d.last[:0], p.Alloc...)
	d.lastSpeeds = append(d.lastSpeeds[:0], p.Speeds...)
	return dec
}

// Settle is the statistics-collection block for one finished image:
// received[k] is n_k, the tile results node k returned within T_L
// (Algorithm 2).
func (d *Driver) Settle(received []int) {
	d.mu.Lock()
	d.stats.Update(received)
	d.mu.Unlock()
}

// aliveSpeeds returns the allocator's speed vector: the Algorithm 2
// estimates, zeroed for nodes that are not alive. Callers hold d.mu.
func (d *Driver) aliveSpeeds(alive []bool) []float64 {
	speeds := make([]float64, len(alive))
	for k, up := range alive {
		if !up {
			continue
		}
		speeds[k] = d.stats.Speed(k)
	}
	return speeds
}

// Probation revival: how often a starved-but-alive node is re-admitted,
// and how far below the best alive estimate a node must have fallen to
// count as starved. γ=0.9 drops a zero-tile node's estimate by 10× per
// image, so "starved" is unambiguous within a handful of images. The
// interval must comfortably exceed one re-measurement burst (the images
// a revived node serves before its misses decay it again), or a node
// still missing T_L would re-enter back-to-back and the probe traffic
// itself would hold the SLO in breach; at 2s the exploration cost is a
// few tiles per starved node per interval.
const (
	probationInterval = 2 * time.Second
	probationFrac     = 0.02
)

// probationRevives re-admits alive nodes whose speed estimate has
// decayed to effectively zero, returning their indices. Algorithm 2 has
// a blind spot: a node whose results miss T_L for a while (a slow link,
// a stalled node) is credited nothing, its EWMA decays toward zero, and
// Allocate skips zero-speed nodes forever — the node is starved even
// after the fault heals. Reviving it to the cold-start weight every
// probationInterval routes a few tiles through it, which either restore
// its speed estimate or miss T_L again and let Algorithm 2 push it back
// out. Callers hold d.mu.
func (d *Driver) probationRevives(now time.Time, alive []bool) []int {
	best := 0.0
	for k, up := range alive {
		if s := d.stats.Speed(k); up && s > best {
			best = s
		}
	}
	if best <= 0 {
		return nil
	}
	var revived []int
	for k, up := range alive {
		if !up || d.stats.Speed(k) >= probationFrac*best {
			continue
		}
		if now.Sub(d.probation[k]) < probationInterval {
			continue
		}
		d.probation[k] = now
		d.stats.Revive(k)
		revived = append(revived, k)
	}
	return revived
}
