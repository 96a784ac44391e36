package sched

import (
	"fmt"
	"sync"
	"time"
)

// NodeView is what the caller knows about one Conv node when it asks
// for a plan: whether the node can take tiles at all, and the measured
// link rates to it in bytes per second (0 = no converged, fresh
// estimate — the node keeps its pure-compute cost).
type NodeView struct {
	Alive          bool
	UpBps, DownBps float64
}

// Plan is one allocation decision and the inputs it was computed from.
type Plan struct {
	// Alloc is the Algorithm 3 split: tiles per node.
	Alloc Allocation
	// Speeds are the Algorithm 2 estimates as the allocator saw them:
	// zero for nodes that are not alive, scaled by the cluster share.
	Speeds []float64
	// LinkSecs is each node's estimated per-tile transfer time and
	// EffSpeeds the speeds derated by it — the vector Alloc was actually
	// computed from. Both are nil when link-aware dispatch is off,
	// uncalibrated, or no node has a usable link estimate.
	LinkSecs  []float64
	EffSpeeds []float64
	// Revived lists the starved-but-alive nodes this plan re-admitted on
	// probation; the caller resets their link estimators (see Driver.Plan).
	Revived []int
}

// Driver is the whole allocation policy around Algorithms 2 and 3: the
// s_k statistics, the cluster capacity share, link-aware derating and
// its calibration, and probation revival of starved nodes. The live
// Central and the virtual-time Sim run the same Driver; the only thing
// that differs between them is where the time comes from, so time is an
// argument (Plan's now) and the Driver never reads a clock. That also
// makes the policy a pure function of the call sequence: a test can
// drive thousands of schedules through it without a socket or a sleep.
//
// All methods are safe for concurrent use.
type Driver struct {
	mu    sync.Mutex
	stats *Stats
	mon   *Monitor // nil-safe

	share []float64 // see SetShare; nil = this replica owns every node outright

	// linkAware folds per-node transfer costs into the allocation (see
	// EffectiveSpeeds). Off by default: with no link estimates the
	// effective speeds equal the measured ones anyway, but the gate keeps
	// the historical allocation byte-identical for existing callers.
	linkAware bool
	// Transfer-cost calibration: EWMA per-tile payload bytes in each
	// direction, and the EWMA image latency (seconds) that converts link
	// seconds into the allocator's 1/s_k units.
	upBytes, downBytes, latRef float64

	// probation timestamps each node's last probation revival (zero =
	// never); see probationRevives.
	probation []time.Time
}

// NewDriver creates the policy for a fixed set of nodes Conv nodes.
// gamma is Algorithm 2's decay and initial the cold-start estimate (see
// NewStats). mon, when non-nil, is told about every plan and every
// statistics update.
func NewDriver(nodes int, gamma, initial float64, mon *Monitor) *Driver {
	return &Driver{stats: NewStats(nodes, gamma, initial), mon: mon, probation: make([]time.Time, nodes)}
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

// SetShare installs the cluster's per-node capacity shares: node k's
// measured speed is scaled by share[k] in every subsequent plan. Only
// the ratios between nodes change a split — a share that is the same
// on every node routes exactly the tiles no share would (Algorithm 3
// is scale-invariant) — so the shares steer a replica toward some
// nodes and away from others (see AffinityTilt). A nil or short share
// leaves the remaining nodes unscaled.
func (d *Driver) SetShare(share []float64) {
	d.mu.Lock()
	d.share = append(d.share[:0], share...)
	d.mu.Unlock()
}

// SetLinkAware switches link-aware dispatch: when on, the per-node
// transfer cost (EWMA tile bytes over the measured link rates) is
// folded into every subsequent plan; when off, plans use the
// pure-compute cost 1/s_k. Nodes without link estimates keep their
// pure-compute cost either way.
func (d *Driver) SetLinkAware(on bool) {
	d.mu.Lock()
	d.linkAware = on
	d.mu.Unlock()
}

// Speeds returns a copy of the raw Algorithm 2 estimates (no share, no
// liveness, no derating).
func (d *Driver) Speeds() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats.Speeds()
}

// Plan is the input-partition decision for one image of tiles tiles at
// time now, given one view per node: nodes that are not alive get
// nothing, the rest share the tiles by Algorithm 3 on their
// share-scaled Algorithm 2 speeds. In link-aware mode the speeds are
// first derated by each node's measured transfer cost, so a node behind
// a collapsed link sheds tiles even while its compute-rate estimate
// still looks healthy. tileBytes and
// caps are Algorithm 3's storage constraint (nil caps = unlimited);
// image labels the decision in the audit trail.
//
// now only has to be monotone across calls on one Driver — wall time
// for the live runtime, virtual time for the simulator.
//
// A starved-but-alive node due for probation is revived before the
// split is computed and listed in Plan.Revived. Its link estimate
// describes conditions from before the starvation and would otherwise
// derate the node back out after a single probe tile, throttling
// re-measurement to one sample per staleness cycle — so this plan
// ignores the rates passed for it, and the caller should reset the
// estimator behind them: cleared, its min-samples gate leaves the node
// underated for a few images, exactly long enough to re-measure the
// link as it is now.
func (d *Driver) Plan(now time.Time, image uint32, tiles int, nodes []NodeView, tileBytes int64, caps []int64) (Plan, error) {
	if len(nodes) != d.stats.Nodes() {
		return Plan{}, fmt.Errorf("sched: %d node views for %d nodes", len(nodes), d.stats.Nodes())
	}
	d.mu.Lock()
	p := Plan{Revived: d.probationRevives(now, nodes)}
	p.Speeds = d.aliveSpeeds(nodes)
	use := p.Speeds
	if d.linkAware {
		p.LinkSecs = d.linkSecs(nodes, p.Revived)
		if p.EffSpeeds = EffectiveSpeeds(p.Speeds, p.LinkSecs, d.latRef); p.EffSpeeds != nil {
			use = p.EffSpeeds
		}
	}
	d.mu.Unlock()
	var err error
	if p.Alloc, err = Allocate(tiles, use, tileBytes, caps, nil); err != nil {
		return p, err
	}
	d.mon.ObserveAllocation(p.Alloc, p.Speeds, p.EffSpeeds, p.LinkSecs, image)
	return p, nil
}

// Settle is the statistics-collection block for one finished image:
// received[k] is n_k, the tile results node k returned within T_L
// (Algorithm 2), and the remaining arguments calibrate the transfer
// cost the link-aware allocator reads — the image's average payload
// bytes per tile in each direction and its end-to-end latency. A
// non-positive calibration argument carries no sample (an image that
// settled no tile has no byte average; a failed image is no latency
// reference).
func (d *Driver) Settle(received []int, upBytesPerTile, downBytesPerTile float64, latency time.Duration) {
	d.mu.Lock()
	d.stats.Update(received)
	if upBytesPerTile > 0 {
		d.upBytes = calibEWMA(d.upBytes, upBytesPerTile)
	}
	if downBytesPerTile > 0 {
		d.downBytes = calibEWMA(d.downBytes, downBytesPerTile)
	}
	if latency > 0 {
		d.latRef = latRefEWMA(d.latRef, latency.Seconds())
	}
	var speeds []float64
	if d.mon != nil {
		speeds = d.stats.Speeds()
	}
	d.mu.Unlock()
	d.mon.ObserveSpeeds(speeds)
}

// calibEWMA folds one calibration sample (per-tile bytes, image
// latency) into its running estimate; the first sample seeds it.
const linkCalibAlpha = 0.2

func calibEWMA(cur, sample float64) float64 {
	if cur <= 0 {
		return sample
	}
	return cur + linkCalibAlpha*(sample-cur)
}

// latRefEWMA folds an image-latency sample into the reference scale
// that converts link seconds into allocator cost. Unlike the byte
// calibration this reference must not chase a fault: a collapsed link
// inflates image latency, and a reference that follows it makes the
// collapsed link's transfer cost look proportionally cheap, neutering
// the derating exactly when it is needed — the same reason the health
// tracker freezes its baseline during an anomaly. Downward moves
// attack at the calibration rate; upward moves creep.
const latRefDecayAlpha = 0.02

func latRefEWMA(cur, sample float64) float64 {
	if cur <= 0 {
		return sample
	}
	a := linkCalibAlpha
	if sample > cur {
		a = latRefDecayAlpha
	}
	return cur + a*(sample-cur)
}

// aliveSpeeds returns the allocator's speed vector: the Algorithm 2
// estimates, zeroed for nodes that are not alive and scaled by the
// cluster share. Callers hold d.mu.
func (d *Driver) aliveSpeeds(nodes []NodeView) []float64 {
	speeds := make([]float64, len(nodes))
	for k, v := range nodes {
		if !v.Alive {
			continue
		}
		speeds[k] = d.stats.Speed(k)
		if k < len(d.share) {
			speeds[k] *= d.share[k]
		}
	}
	return speeds
}

// linkSecs estimates each node's per-tile transfer time in seconds:
// EWMA payload bytes over the node's measured link rates. A direction
// without an estimate contributes nothing, so a node the profiler knows
// nothing about — or one just revived on probation — keeps its
// pure-compute cost. Callers hold d.mu.
func (d *Driver) linkSecs(nodes []NodeView, revived []int) []float64 {
	if d.upBytes <= 0 && d.downBytes <= 0 {
		return nil
	}
	out := make([]float64, len(nodes))
	for k, v := range nodes {
		if v.UpBps > 0 && d.upBytes > 0 {
			out[k] += d.upBytes / v.UpBps
		}
		if v.DownBps > 0 && d.downBytes > 0 {
			out[k] += d.downBytes / v.DownBps
		}
	}
	for _, k := range revived {
		out[k] = 0
	}
	for _, s := range out {
		if s > 0 {
			return out
		}
	}
	return nil
}

// Probation revival: how often a starved-but-alive node is re-admitted,
// and how far below the best alive estimate a node must have fallen to
// count as starved. γ=0.9 drops a zero-tile node's estimate by 10× per
// image, so "starved" is unambiguous within a handful of images. The
// interval must comfortably exceed one re-measurement burst (the few
// images a revived node serves before its fresh link estimate can
// derate it again), or a still-faulty node would re-enter back-to-back
// and the probe traffic itself would hold the SLO in breach; at 2s the
// exploration cost is a few tiles per starved node per interval.
const (
	probationInterval = 2 * time.Second
	probationFrac     = 0.02
)

// probationRevives re-admits alive nodes whose speed estimate has
// decayed to effectively zero, returning their indices. Algorithm 2 has
// a blind spot the chaos bandwidth drill exposes: a node shed by
// link-aware dispatch (or any transient stall) receives no tiles, its
// EWMA decays toward zero, and Allocate skips zero-speed nodes forever
// — the node is starved even after the fault heals. Reviving it to the
// cold-start weight every probationInterval routes a few tiles through
// it, which either restore its speed estimate and link telemetry or let
// the telemetry push it back out. Callers hold d.mu.
func (d *Driver) probationRevives(now time.Time, nodes []NodeView) []int {
	best := 0.0
	for k, v := range nodes {
		if s := d.stats.Speed(k); v.Alive && s > best {
			best = s
		}
	}
	if best <= 0 {
		return nil
	}
	var revived []int
	for k, v := range nodes {
		if !v.Alive || d.stats.Speed(k) >= probationFrac*best {
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
