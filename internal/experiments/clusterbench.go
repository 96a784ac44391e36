package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"adcnn/internal/core"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// ClusterBenchRun is one measured closed-loop pass over the shared pool.
type ClusterBenchRun struct {
	Replicas int `json:"replicas"`
	StreamBenchRun
	Steals []int64 `json:"steals"`
}

// ClusterImbalance is the work-stealing pass: open-loop offered load
// split unevenly across replica origins, judged by how close the
// per-origin client p99 latencies stay.
type ClusterImbalance struct {
	Images         int       `json:"images"`
	OfferedIPS     float64   `json:"offered_ips"`
	SplitRatio     string    `json:"split_ratio"`
	PerOriginP99Ms []float64 `json:"per_origin_p99_ms"`
	P99SpreadPct   float64   `json:"p99_spread_pct"`
	Steals         []int64   `json:"steals"` // steals during this pass only
}

// ClusterBenchReport pins the control-plane sharding properties.
//
// Throughput scaling: one Conv pool (live TCP, per-tile service delay
// standing in for device compute) is driven first by one Central
// replica, then by two through core.Cluster. Each replica runs at
// admission depth 1, so a single replica's throughput is bound by its
// own round trip (tile service + back layers) while most of the pool
// idles; the second replica's sessions fill that idle capacity. The
// affinity-tilted shares (sched.AffinityTilt) spread the replicas onto
// disjoint node subsets, so the acceptance gate is aggregate dual
// throughput ≥ 1.7× single.
//
// Work stealing: the same dual cluster is then offered an open-loop
// stream split 3:1 between the two replica origins, with the total
// rate chosen so the loaded origin alone exceeds its replica's
// capacity. Without stealing its queue diverges; with stealing the
// idle replica drains it, and the gate is per-origin client p99
// latencies within 25% of each other.
type ClusterBenchReport struct {
	Timestamp string `json:"timestamp"`
	telemetry.Host
	Model       string           `json:"model"`
	Grid        string           `json:"grid"`
	Nodes       int              `json:"nodes"`
	TileDelayMs float64          `json:"tile_delay_ms"`
	Depth       int              `json:"admission_depth"`
	Single      ClusterBenchRun  `json:"single_replica"`
	Dual        ClusterBenchRun  `json:"dual_replica"`
	SpeedupX    float64          `json:"speedup_x"` // dual / single throughput
	Imbalance   ClusterImbalance `json:"imbalance"`
}

// replicas runs a core.Cluster of n Centrals over the pool, each with
// its own TCP connections and model instance.
func (cl *liveCluster) replicas(n int) (*core.Cluster, error) {
	build := func(int) (*core.Central, error) { return cl.central(core.CentralConfig{}) }
	return core.NewCluster(build, core.ClusterOptions{
		Replicas: n, Depth: 1, RebalanceEvery: 100 * time.Millisecond,
	})
}

// clusterClosedLoop keeps every replica origin saturated with one image
// at a time (admission depth 1) and reports aggregate throughput over
// the measured images. warmup images per origin run first so Algorithm
// 2's estimates settle on each replica's node subset.
func clusterClosedLoop(cl *core.Cluster, images, warmup int) (ClusterBenchRun, error) {
	run, err := closedLoop(cl.Replicas(), images, warmup, func(o int, x *tensor.Tensor) (time.Duration, error) {
		ch, err := cl.Submit(context.Background(), o, x)
		if err != nil {
			return 0, err
		}
		r := <-ch
		return r.Stats.Latency, r.Err
	})
	return ClusterBenchRun{Replicas: cl.Replicas(), StreamBenchRun: run, Steals: cl.Steals()}, err
}

// clusterImbalance offers an open-loop stream at offered images/sec,
// routing 3 of every 4 submissions to origin 0, and measures per-origin
// client latency (submit to result, queueing included).
func clusterImbalance(cl *core.Cluster, images int, offered float64) (ClusterImbalance, error) {
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(7)), 1)
	reps := cl.Replicas()
	stealsBefore := cl.Steals()
	interval := time.Duration(float64(time.Second) / offered)
	var mu sync.Mutex
	lats := make([][]float64, reps)
	var firstErr error
	var wg sync.WaitGroup
	next := time.Now()
	for i := 0; i < images; i++ {
		origin := 0
		if i%4 == 3 {
			origin = 1 % reps
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		submitAt := time.Now()
		ch, err := cl.Submit(context.Background(), origin, x)
		if err != nil {
			return ClusterImbalance{}, err
		}
		wg.Add(1)
		go func(origin int, submitAt time.Time, ch <-chan core.ClusterResult) {
			defer wg.Done()
			r := <-ch
			mu.Lock()
			defer mu.Unlock()
			if r.Err != nil {
				if firstErr == nil {
					firstErr = r.Err
				}
				return
			}
			lats[origin] = append(lats[origin], ms(time.Since(submitAt)))
		}(origin, submitAt, ch)
	}
	wg.Wait()
	if firstErr != nil {
		return ClusterImbalance{}, firstErr
	}
	out := ClusterImbalance{
		Images:     images,
		OfferedIPS: offered,
		SplitRatio: "3:1",
	}
	lo, hi := 0.0, 0.0
	for o := 0; o < reps; o++ {
		if len(lats[o]) == 0 {
			return out, fmt.Errorf("origin %d received no results", o)
		}
		sort.Float64s(lats[o])
		p99 := lats[o][(len(lats[o])*99)/100]
		out.PerOriginP99Ms = append(out.PerOriginP99Ms, p99)
		if o == 0 || p99 < lo {
			lo = p99
		}
		if p99 > hi {
			hi = p99
		}
	}
	if lo > 0 {
		out.P99SpreadPct = (hi - lo) / lo * 100
	}
	after := cl.Steals()
	out.Steals = make([]int64, reps)
	for r := range after {
		out.Steals[r] = after[r] - stealsBefore[r]
	}
	return out, nil
}

// ClusterBench runs the control-plane sharding benchmark: single vs
// dual replica throughput over one shared 4-node pool, then the 3:1
// imbalance pass on the warmed dual cluster.
func ClusterBench(images int) (*ClusterBenchReport, error) {
	// The tile delay must dominate the Central's per-image CPU work
	// (partition + codec + back layers, ~2ms here): on few-core hosts
	// the replicas' CPU phases serialize, so aggregate dual throughput
	// is 2/(D+2C) against a single replica's 1/(D+C) — the speedup
	// only approaches 2 when C ≪ D.
	const (
		nodes     = 4
		tileDelay = 25 * time.Millisecond
	)
	// Two tiles per image over four nodes: each replica occupies two
	// nodes per image, so a second replica has two idle nodes' worth of
	// pool capacity to claim. The tilted shares steer it there.
	opt := models.Options{Grid: fdsp.Grid{Rows: 1, Cols: 2}}
	warmup := images / 5
	if warmup < 16 {
		warmup = 16
	}
	rep := &ClusterBenchReport{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		Host:        telemetry.HostInfo(),
		Model:       models.VGGSim().Name,
		Grid:        "1x2",
		Nodes:       nodes,
		TileDelayMs: ms(tileDelay),
		Depth:       1,
	}

	pool, err := startLiveCluster(opt, nodes, func(w *core.Worker) { w.SetDelay(tileDelay) })
	if err != nil {
		return nil, err
	}
	defer pool.stop()

	cl1, err := pool.replicas(1)
	if err != nil {
		return nil, err
	}
	rep.Single, err = clusterClosedLoop(cl1, images, warmup)
	cl1.Shutdown()
	if err != nil {
		return nil, err
	}

	cl2, err := pool.replicas(2)
	if err != nil {
		return nil, err
	}
	defer cl2.Shutdown()
	rep.Dual, err = clusterClosedLoop(cl2, images, warmup)
	if err != nil {
		return nil, err
	}
	if rep.Single.ThroughputIPS > 0 {
		rep.SpeedupX = rep.Dual.ThroughputIPS / rep.Single.ThroughputIPS
	}

	// Offered load: 75% of the measured dual capacity. Origin 0 then
	// carries 3/4 of it ≈ 1.13× one replica's capacity — overloaded,
	// so only stealing keeps its queue (and client p99) bounded.
	offered := 0.75 * rep.Dual.ThroughputIPS
	rep.Imbalance, err = clusterImbalance(cl2, images, offered)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// WriteText renders the scaling and stealing results.
func (r *ClusterBenchReport) WriteText(w io.Writer) {
	fprintf(w, "Control-plane sharding (%s %s, %d nodes, %.0fms/tile, depth %d, %s/%s, %d CPUs)\n",
		r.Model, r.Grid, r.Nodes, r.TileDelayMs, r.Depth, r.GOOS, r.GOARCH, r.NumCPU)
	fprintf(w, "  %-16s %10s %12s %12s %10s\n", "replicas", "imgs/sec", "mean(ms)", "p95(ms)", "steals")
	for _, row := range []ClusterBenchRun{r.Single, r.Dual} {
		fprintf(w, "  %-16d %10.2f %12.2f %12.2f %10v\n",
			row.Replicas, row.ThroughputIPS, row.MeanLatencyMs, row.P95LatencyMs, row.Steals)
	}
	fprintf(w, "  aggregate speedup: %.2fx (gate: >= 1.7x)\n", r.SpeedupX)
	fprintf(w, "Imbalance %s at %.0f imgs/sec offered over %d images:\n",
		r.Imbalance.SplitRatio, r.Imbalance.OfferedIPS, r.Imbalance.Images)
	fprintf(w, "  per-origin client p99 (ms): %v  spread %.1f%% (gate: <= 25%%)  steals %v\n",
		r.Imbalance.PerOriginP99Ms, r.Imbalance.P99SpreadPct, r.Imbalance.Steals)
}
