package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"adcnn/internal/sched"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// Cluster runs N Central replicas over one shared Conv pool as a single
// control plane. Each replica is a full Central — its own sessions to
// every node (the Conv side serves each an independent session, see
// NodeServer), its own Algorithm 2 statistics and pending table — and
// the replicas drain one bounded FIFO of submitted images: a replica's
// dispatcher takes the next image only once its own pipeline has room
// to start it, so an idle replica always runs the queue's head.
//
// NewCluster installs the static fair shares (sched.FairShares) once.
// Their affinity tilt keeps symmetric replicas from herding onto the
// same nodes; nothing rescales them later, because Algorithm 3's split
// is unchanged when every speed of a replica is scaled by one factor.
//
// Shutdown drains: everything queued or in flight completes and is
// delivered before the replicas are torn down.
type Cluster struct {
	replicas []*Central
	pipes    []*Pipeline

	// queue holds the submitted images no replica has taken yet. Its
	// capacity, clusterQueueCap per replica, is the admission bound:
	// Submit blocks while it is full.
	queue chan *clusterItem

	mu      sync.Mutex
	closed  bool
	sending sync.WaitGroup // Submits admitted before Shutdown, not yet queued

	dispWG sync.WaitGroup // dispatcher goroutines
	waitWG sync.WaitGroup // outstanding Wait deliverers

	met *clusterMetrics
}

// clusterQueueCap is the queue capacity per replica.
const clusterQueueCap = 64

// ClusterOptions configures NewCluster. Zero values take defaults.
type ClusterOptions struct {
	// Replicas is the number of Central replicas (default 2).
	Replicas int
	// Depth is each replica's pipeline admission depth (default
	// StreamDepth).
	Depth int
	// Registry, when set, receives the cluster-level metric families
	// (queue depth, per-replica images).
	Registry *telemetry.Registry
}

// ClusterResult is one submitted image's outcome.
type ClusterResult struct {
	Out     *tensor.Tensor
	Stats   InferStats
	Replica int // the replica that executed the image
	Err     error
}

// clusterItem is one queued submission.
type clusterItem struct {
	x  *tensor.Tensor
	ch chan ClusterResult
}

// clusterMetrics are the cluster-level families.
type clusterMetrics struct {
	queueDepth *telemetry.Gauge
	images     *telemetry.CounterVec // replica (executing side)
}

func newClusterMetrics(reg *telemetry.Registry) *clusterMetrics {
	if reg == nil {
		return nil
	}
	return &clusterMetrics{
		queueDepth: reg.Gauge("adcnn_cluster_queue_depth", "Submitted images no replica has taken yet."),
		images:     reg.CounterVec("adcnn_cluster_images_total", "Images executed per replica.", "replica"),
	}
}

// NewCluster builds opts.Replicas Centrals via build (r is the replica
// index; each call must return a Central with its own connections to
// the shared pool), installs the fair shares and starts the
// dispatchers.
func NewCluster(build func(r int) (*Central, error), opts ClusterOptions) (*Cluster, error) {
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	c := &Cluster{
		replicas: make([]*Central, opts.Replicas),
		pipes:    make([]*Pipeline, opts.Replicas),
		queue:    make(chan *clusterItem, clusterQueueCap*opts.Replicas),
		met:      newClusterMetrics(opts.Registry),
	}
	for r := 0; r < opts.Replicas; r++ {
		cen, err := build(r)
		if err != nil {
			for _, prev := range c.replicas[:r] {
				prev.Shutdown()
			}
			return nil, fmt.Errorf("core: cluster replica %d: %w", r, err)
		}
		c.replicas[r] = cen
		c.pipes[r] = NewPipeline(cen, opts.Depth)
	}
	shares := sched.FairShares(c.replicas[0].NumNodes(), opts.Replicas)
	for r, cen := range c.replicas {
		cen.SetShare(shares[r])
	}
	for r := 0; r < opts.Replicas; r++ {
		c.dispWG.Add(1)
		go c.dispatch(r)
	}
	return c, nil
}

// Replicas returns the replica count.
func (c *Cluster) Replicas() int { return len(c.replicas) }

// Replica returns replica r's Central (membership changes, debug).
func (c *Cluster) Replica(r int) *Central { return c.replicas[r] }

// Submit queues an image and returns a channel that delivers its result
// exactly once. Submit blocks while the queue is full (admission
// control) and returns ctx.Err() if ctx ends first.
func (c *Cluster) Submit(ctx context.Context, x *tensor.Tensor) (<-chan ClusterResult, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("core: cluster is shut down")
	}
	c.sending.Add(1)
	c.mu.Unlock()
	defer c.sending.Done()
	it := &clusterItem{x: x, ch: make(chan ClusterResult, 1)}
	select {
	case c.queue <- it:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	c.setDepth()
	return it.ch, nil
}

func (c *Cluster) setDepth() {
	if c.met != nil {
		c.met.queueDepth.Set(float64(len(c.queue)))
	}
}

// dispatch is replica r's executor: reserve a slot in r's pipeline,
// take the queue's head, submit it into the reserved slot, and deliver
// the result from a waiter goroutine so the next image can dispatch
// while this one's results are still arriving.
//
// The reservation MUST precede the take: a dispatcher whose pipeline is
// at depth would otherwise hold an image it cannot start while another
// replica sits idle. The pipeline's own admission bound is the
// replica's capacity; the slot comes back when the image's Wait
// finishes.
func (c *Cluster) dispatch(r int) {
	defer c.dispWG.Done()
	for {
		// Reserve fails only once the replica is shut down, and then every
		// image this dispatcher still takes fails the same way.
		err := c.pipes[r].Reserve(context.Background())
		it, ok := <-c.queue
		if !ok {
			return
		}
		c.setDepth()
		var h *Inflight
		if err == nil {
			h, err = c.pipes[r].SubmitReserved(context.Background(), it.x)
		}
		if err != nil {
			it.ch <- ClusterResult{Replica: r, Err: err}
			continue
		}
		c.waitWG.Add(1)
		go func(it *clusterItem) {
			defer c.waitWG.Done()
			out, stats, werr := h.Wait()
			if c.met != nil {
				c.met.images.With(replicaLabel(r)).Inc()
			}
			it.ch <- ClusterResult{Out: out, Stats: stats, Replica: r, Err: werr}
		}(it)
	}
}

// Shutdown drains the queue, waits for all outstanding results to
// deliver, then tears the replicas down. A Submit racing Shutdown
// either makes it into the queue — and completes — or fails with a
// shut-down error; one already blocked on a full queue gets in as the
// dispatchers drain it.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.sending.Wait()
	close(c.queue)
	c.dispWG.Wait()
	c.waitWG.Wait()
	for _, cen := range c.replicas {
		cen.Shutdown()
	}
}

// replicaLabel names a replica for metric labels.
func replicaLabel(r int) string { return nodeLabel(r) }
