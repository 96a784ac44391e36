package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adcnn/internal/sched"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// Cluster runs N Central replicas over one shared Conv pool as a single
// control plane. Each replica is a full Central — its own sessions to
// every node (the Conv side serves each an independent session, see
// NodeServer), its own Algorithm 2 statistics and pending table — and
// the cluster supplies the two things no replica can do alone:
//
//   - capacity partitioning: a rebalance loop measures each replica's
//     demand (queued + in-flight images) and installs demand-weighted
//     per-node capacity shares (sched.DemandShares) via SetShare, so
//     the replicas' independent Algorithm 3 runs jointly respect each
//     node's real capacity instead of all assuming they own it;
//
//   - work stealing: submissions enter per-replica queues, and an idle
//     replica whose queue is dry steals the head of the deepest queue
//     once it exceeds StealThreshold — covering the imbalance that
//     builds *between* rebalances, which share scaling alone cannot.
//
// Shutdown drains: everything queued or in flight completes and is
// delivered before the replicas are torn down.
type Cluster struct {
	replicas []*Central
	pipes    []*Pipeline
	opts     ClusterOptions

	qmu      sync.Mutex
	cond     *sync.Cond
	queues   [][]*clusterItem
	closed   bool
	entitled []float64 // scalar per-replica entitlement from the last rebalance

	admit []chan struct{} // per-origin admission tokens, cap QueueCap

	steals []atomic.Int64

	dispWG sync.WaitGroup // dispatcher goroutines
	waitWG sync.WaitGroup // outstanding Wait deliverers
	ctx    context.Context
	cancel context.CancelFunc

	met *clusterMetrics

	lastShares [][]float64 // audit: previous rebalance's shares
}

// ClusterOptions configures NewCluster. Zero values take defaults.
type ClusterOptions struct {
	// Replicas is the number of Central replicas (default 2).
	Replicas int
	// QueueCap bounds each replica's submission queue (default 64):
	// Submit blocks once the origin replica has QueueCap undispatched
	// images.
	QueueCap int
	// StealThreshold is the queue depth at which an idle replica starts
	// stealing from a victim (default 1). A dispatcher only reaches the
	// steal check when it has nothing of its own to run, so taking even
	// a single queued image is a pure latency win; raise the threshold
	// to keep short bursts on their origin replica (warmer statistics)
	// at the cost of them waiting out its in-service image.
	StealThreshold int
	// Depth is each replica's pipeline admission depth (default
	// StreamDepth).
	Depth int
	// RebalanceEvery is the share-rebalance interval (default 250ms);
	// negative disables rebalancing (static fair shares forever).
	RebalanceEvery time.Duration
	// Registry, when set, receives the cluster-level metric families
	// (queue depth, steals, shares, per-replica images and latency).
	Registry *telemetry.Registry
	// Audit, when set, records every material share rebalance as a
	// scheduler decision.
	Audit *sched.Audit
}

func (o *ClusterOptions) defaults() {
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.StealThreshold <= 0 {
		o.StealThreshold = 1
	}
	if o.RebalanceEvery == 0 {
		o.RebalanceEvery = 250 * time.Millisecond
	}
}

// ClusterResult is one submitted image's outcome.
type ClusterResult struct {
	Out   *tensor.Tensor
	Stats InferStats
	// Origin is the replica the image was submitted to; Replica the one
	// that executed it (different after a steal).
	Origin  int
	Replica int
	Err     error
}

// clusterItem is one queued submission.
type clusterItem struct {
	x      *tensor.Tensor
	origin int
	ch     chan ClusterResult
}

// clusterMetrics are the cluster-level families.
type clusterMetrics struct {
	queueDepth *telemetry.GaugeVec   // replica
	steals     *telemetry.CounterVec // replica (executing side)
	share      *telemetry.GaugeVec   // replica, node
	images     *telemetry.CounterVec // replica (executing side)
	latency    *telemetry.HistogramVec
}

func newClusterMetrics(reg *telemetry.Registry) *clusterMetrics {
	if reg == nil {
		return nil
	}
	return &clusterMetrics{
		queueDepth: reg.GaugeVec("adcnn_cluster_queue_depth", "Undispatched images queued per replica.", "replica"),
		steals:     reg.CounterVec("adcnn_cluster_steals_total", "Queued images stolen by each replica from another replica's queue.", "replica"),
		share:      reg.GaugeVec("adcnn_cluster_share", "Fraction of each Conv node's capacity assigned to each replica.", "replica", "node"),
		images:     reg.CounterVec("adcnn_cluster_images_total", "Images executed per replica (including stolen ones).", "replica"),
		latency:    reg.HistogramVec("adcnn_cluster_image_latency_seconds", "Submit-to-result latency per executing replica.", nil, "replica"),
	}
}

// NewCluster builds opts.Replicas Centrals via build (r is the replica
// index; each call must return a Central with its own connections to
// the shared pool) and starts the dispatchers and the rebalance loop.
// Static fair shares are installed up front.
func NewCluster(build func(r int) (*Central, error), opts ClusterOptions) (*Cluster, error) {
	opts.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Cluster{
		replicas: make([]*Central, opts.Replicas),
		pipes:    make([]*Pipeline, opts.Replicas),
		opts:     opts,
		queues:   make([][]*clusterItem, opts.Replicas),
		admit:    make([]chan struct{}, opts.Replicas),
		steals:   make([]atomic.Int64, opts.Replicas),
		entitled: make([]float64, opts.Replicas),
		ctx:      ctx,
		cancel:   cancel,
		met:      newClusterMetrics(opts.Registry),
	}
	c.cond = sync.NewCond(&c.qmu)
	for r := 0; r < opts.Replicas; r++ {
		cen, err := build(r)
		if err != nil {
			cancel()
			for _, prev := range c.replicas {
				if prev != nil {
					prev.Shutdown()
				}
			}
			return nil, fmt.Errorf("core: cluster replica %d: %w", r, err)
		}
		c.replicas[r] = cen
		c.pipes[r] = NewPipeline(cen, opts.Depth)
		c.admit[r] = make(chan struct{}, opts.QueueCap)
	}
	c.applyShares(sched.FairShares(c.replicas[0].NumNodes(), opts.Replicas), nil)
	for r := 0; r < opts.Replicas; r++ {
		c.dispWG.Add(1)
		go c.dispatch(r)
	}
	if opts.RebalanceEvery > 0 {
		go c.rebalanceLoop()
	}
	return c, nil
}

// Replicas returns the replica count.
func (c *Cluster) Replicas() int { return len(c.replicas) }

// Replica returns replica r's Central (membership changes, debug).
func (c *Cluster) Replica(r int) *Central { return c.replicas[r] }

// Steals returns how many queued images each replica has stolen.
func (c *Cluster) Steals() []int64 {
	out := make([]int64, len(c.steals))
	for r := range c.steals {
		out[r] = c.steals[r].Load()
	}
	return out
}

// Submit hands an image to replica origin's queue and returns a channel
// that delivers its result exactly once. Submit blocks while origin
// already has QueueCap undispatched images (admission control); the
// image may ultimately execute on a different replica if stolen.
func (c *Cluster) Submit(ctx context.Context, origin int, x *tensor.Tensor) (<-chan ClusterResult, error) {
	if origin < 0 || origin >= len(c.replicas) {
		return nil, fmt.Errorf("core: cluster has no replica %d", origin)
	}
	select {
	case c.admit[origin] <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.ctx.Done():
		return nil, fmt.Errorf("core: cluster is shut down")
	}
	it := &clusterItem{x: x, origin: origin, ch: make(chan ClusterResult, 1)}
	c.qmu.Lock()
	if c.closed {
		c.qmu.Unlock()
		<-c.admit[origin]
		return nil, fmt.Errorf("core: cluster is shut down")
	}
	c.queues[origin] = append(c.queues[origin], it)
	depth := len(c.queues[origin])
	// Broadcast, not Signal: a single wakeup can land on a dispatcher
	// whose own queue is empty and for whom this queue is still below
	// the steal threshold — it re-checks, sleeps again, and the one
	// dispatcher that would run this item never wakes.
	c.cond.Broadcast()
	c.qmu.Unlock()
	if c.met != nil {
		c.met.queueDepth.With(replicaLabel(origin)).Set(float64(depth))
	}
	return it.ch, nil
}

// take blocks until replica r has an image to run: its own queue's
// head, or — when its queue is dry and a victim's depth has reached
// StealThreshold — the deepest victim's head. After close it drains
// whatever remains anywhere, then returns nil.
func (c *Cluster) take(r int) *clusterItem {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for {
		if len(c.queues[r]) > 0 {
			return c.popLocked(r, r)
		}
		victim, depth := -1, 0
		for o := range c.queues {
			if o != r && len(c.queues[o]) > depth {
				victim, depth = o, len(c.queues[o])
			}
		}
		if victim >= 0 && (depth >= c.opts.StealThreshold || c.closed) {
			return c.popLocked(victim, r)
		}
		if c.closed {
			return nil
		}
		c.cond.Wait()
	}
}

// popLocked removes queue from's head on behalf of replica by,
// releasing the origin's admission token. Caller holds qmu.
func (c *Cluster) popLocked(from, by int) *clusterItem {
	q := c.queues[from]
	it := q[0]
	q[0] = nil
	c.queues[from] = q[1:]
	depth := len(c.queues[from])
	<-c.admit[it.origin]
	if from != by {
		c.steals[by].Add(1)
		if c.met != nil {
			c.met.steals.With(replicaLabel(by)).Inc()
		}
	}
	if c.met != nil {
		c.met.queueDepth.With(replicaLabel(from)).Set(float64(depth))
	}
	return it
}

// dispatch is replica r's executor: reserve a slot in r's pipeline, pop
// (or steal) an image, submit it into the reserved slot, and deliver
// the result from a waiter goroutine so the next image can dispatch
// while this one's results are still arriving.
//
// The reservation MUST precede take(): a dispatcher whose pipeline is
// at depth would otherwise still grab an item — possibly stealing it —
// and then block in Submit holding it hostage, while the item's origin
// replica sits idle and could have run it immediately. Reserving
// capacity first means only a replica that can actually start an image
// competes for one. The pipeline's own admission bound is that
// capacity; the slot comes back when the image's Wait finishes.
func (c *Cluster) dispatch(r int) {
	defer c.dispWG.Done()
	for {
		// Reserve fails only once the replica is shut down, and then every
		// image this dispatcher still takes fails the same way.
		err := c.pipes[r].Reserve(context.Background())
		it := c.take(r)
		if it == nil {
			return
		}
		start := time.Now()
		var h *Inflight
		if err == nil {
			h, err = c.pipes[r].SubmitReserved(context.Background(), it.x)
		}
		if err != nil {
			it.ch <- ClusterResult{Origin: it.origin, Replica: r, Err: err}
			continue
		}
		c.waitWG.Add(1)
		go func(it *clusterItem) {
			defer c.waitWG.Done()
			out, stats, werr := h.Wait()
			if c.met != nil {
				c.met.images.With(replicaLabel(r)).Inc()
				c.met.latency.With(replicaLabel(r)).ObserveDuration(time.Since(start).Nanoseconds())
			}
			it.ch <- ClusterResult{Out: out, Stats: stats, Origin: it.origin, Replica: r, Err: werr}
		}(it)
	}
}

// rebalanceLoop periodically re-partitions node capacity by demand.
func (c *Cluster) rebalanceLoop() {
	t := time.NewTicker(c.opts.RebalanceEvery)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.Rebalance()
		}
	}
}

// Rebalance recomputes the demand-weighted capacity shares and installs
// them on every replica (also runs on the RebalanceEvery timer; exposed
// for tests and manual triggers).
func (c *Cluster) Rebalance() {
	n := len(c.replicas)
	demand := make([]float64, n)
	c.qmu.Lock()
	for r := range c.queues {
		demand[r] = float64(len(c.queues[r]))
	}
	c.qmu.Unlock()
	for r, cen := range c.replicas {
		demand[r] += float64(cen.InFlight())
	}
	c.applyShares(sched.DemandShares(c.replicas[0].NumNodes(), demand), demand)
}

// applyShares installs a share matrix on the replicas, publishes the
// share gauges, and audits material changes.
func (c *Cluster) applyShares(shares [][]float64, demand []float64) {
	if shares == nil {
		return
	}
	for r, cen := range c.replicas {
		cen.SetShare(shares[r])
	}
	totals := sched.ShareTotals(shares)
	c.qmu.Lock()
	copy(c.entitled, totals)
	prev := c.lastShares
	changed := prev == nil
	for r := range shares {
		if changed {
			break
		}
		for k := range shares[r] {
			if k >= len(prev[r]) || abs(shares[r][k]-prev[r][k]) > 0.02 {
				changed = true
				break
			}
		}
	}
	if changed {
		c.lastShares = shares
	}
	c.qmu.Unlock()
	if c.met != nil {
		for r := range shares {
			for k := range shares[r] {
				c.met.share.With(replicaLabel(r), nodeLabel(k)).Set(shares[r][k])
			}
		}
	}
	if changed && c.opts.Audit != nil {
		// A share rebalance in the decision ring: Speeds carry the demand
		// signal, Next the per-replica share in percent points.
		d := sched.Decision{At: time.Now(), Trigger: "cluster-rebalance"}
		if demand != nil {
			d.Speeds = append([]float64(nil), demand...)
		}
		d.Next = make(sched.Allocation, len(totals))
		for r, t := range totals {
			d.Next[r] = int(t*100 + 0.5)
		}
		if prev != nil {
			pt := sched.ShareTotals(prev)
			d.Prev = make(sched.Allocation, len(pt))
			for r, t := range pt {
				d.Prev[r] = int(t*100 + 0.5)
			}
		}
		c.opts.Audit.Record(d)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Shutdown drains the queues (dispatchers keep stealing until every
// queue is empty), waits for all outstanding results to deliver, then
// tears the replicas down. Submissions racing Shutdown either make it
// into a queue — and complete — or fail with a shut-down error.
func (c *Cluster) Shutdown() {
	c.qmu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.qmu.Unlock()
	c.dispWG.Wait()
	c.waitWG.Wait()
	c.cancel()
	for _, cen := range c.replicas {
		cen.Shutdown()
	}
}

// replicaLabel names a replica for metric labels.
func replicaLabel(r int) string { return nodeLabel(r) }
