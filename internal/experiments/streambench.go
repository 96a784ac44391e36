package experiments

import (
	"context"
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

// StreamBenchRun is one measured closed-loop pass of the live runtime.
type StreamBenchRun struct {
	Images        int     `json:"images"`
	ThroughputIPS float64 `json:"throughput_ips"`
	MeanLatencyMs float64 `json:"mean_latency_ms"`
	P95LatencyMs  float64 `json:"p95_latency_ms"`
}

// StreamBenchReport pins the live pipelining gain. With a per-tile
// worker delay standing in for Conv-node compute, the same stream is
// run once sequentially (one image at a time) and once through a
// bounded Pipeline, so image i+1's tiles are in flight while image i's
// results are still collecting — the live counterpart of the
// simulator's three-stage overlap (paper Fig. 9). Pipelined throughput
// must beat sequential.
type StreamBenchReport struct {
	Timestamp string `json:"timestamp"`
	telemetry.Host
	Model          string         `json:"model"`
	Grid           string         `json:"grid"`
	Nodes          int            `json:"nodes"`
	PipelineDepth  int            `json:"pipeline_depth"`
	TileDelayMs    float64        `json:"tile_delay_ms"` // simulated Conv service time per tile
	LiveSequential StreamBenchRun `json:"live_sequential"`
	LivePipelined  StreamBenchRun `json:"live_pipelined"`
	PipelineGain   float64        `json:"pipeline_gain"` // pipelined / sequential throughput
}

// closedLoop drives clients concurrent closed loops, each submitting its
// next image only once infer returned the previous one's latency:
// warmup unmeasured images per client, then images in total split
// across the clients. It reports wall-clock throughput and per-image
// latency over the measured images.
func closedLoop(clients, images, warmup int, infer func(x *tensor.Tensor) (time.Duration, error)) (StreamBenchRun, error) {
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(7)), 1)
	pass := func(count func(client int) int) ([]float64, time.Duration, error) {
		lats := make([][]float64, clients)
		errs := make(chan error, clients)
		var wg sync.WaitGroup
		start := time.Now()
		for o := 0; o < clients; o++ {
			wg.Add(1)
			go func(o int) {
				defer wg.Done()
				for i := 0; i < count(o); i++ {
					lat, err := infer(x)
					if err != nil {
						errs <- err
						return
					}
					lats[o] = append(lats[o], ms(lat))
				}
			}(o)
		}
		wg.Wait()
		wall := time.Since(start)
		select {
		case err := <-errs:
			return nil, 0, err
		default:
		}
		var all []float64
		for _, l := range lats {
			all = append(all, l...)
		}
		return all, wall, nil
	}
	if _, _, err := pass(func(int) int { return warmup }); err != nil {
		return StreamBenchRun{}, err
	}
	lat, wall, err := pass(func(o int) int {
		if o < images%clients {
			return images/clients + 1
		}
		return images / clients
	})
	if err != nil {
		return StreamBenchRun{}, err
	}
	sort.Float64s(lat)
	var sum float64
	for _, v := range lat {
		sum += v
	}
	return StreamBenchRun{
		Images:        len(lat),
		ThroughputIPS: float64(len(lat)) / wall.Seconds(),
		MeanLatencyMs: sum / float64(len(lat)),
		P95LatencyMs:  lat[(len(lat)*95)/100],
	}, nil
}

// livePipelineComparison runs the sequential and the pipelined pass on
// fresh runtimes whose workers sleep delay per tile, standing in for
// Conv-node compute that the Central can overlap with its own back
// layers. The pipelined pass keeps depth images in flight through one
// Pipeline — per-image latency includes the admission wait, so it rises
// with depth even as throughput improves; that trade is the point —
// and carries trace when it is non-nil.
func livePipelineComparison(opt models.Options, nodes, images, warmup, depth int, delay time.Duration, trace *telemetry.Trace) (seq, pipe StreamBenchRun, err error) {
	setup := func(w *core.Worker) { w.SetDelay(delay) }
	c, _, stop, err := liveCentral(opt, nodes, setup, core.CentralConfig{})
	if err != nil {
		return seq, pipe, err
	}
	seq, err = closedLoop(1, images, warmup, func(x *tensor.Tensor) (time.Duration, error) {
		_, st, err := c.Infer(x)
		return st.Latency, err
	})
	stop()
	if err != nil {
		return seq, pipe, err
	}
	if c, _, stop, err = liveCentral(opt, nodes, setup, core.CentralConfig{Trace: trace}); err != nil {
		return seq, pipe, err
	}
	defer stop()
	p := core.NewPipeline(c, depth)
	pipe, err = closedLoop(depth, images, warmup, func(x *tensor.Tensor) (time.Duration, error) {
		h, err := p.Submit(context.Background(), x)
		if err != nil {
			return 0, err
		}
		_, st, err := h.Wait()
		return st.Latency, err
	})
	return seq, pipe, err
}

// StreamBench runs the live pipelining experiment. The trace, when
// non-nil, is attached to the pipelined pass so the run doubles as a
// timeline capture.
func StreamBench(images int, trace *telemetry.Trace) (*StreamBenchReport, error) {
	// One tile per node (2x2 grid on 4 nodes) with a fixed per-tile
	// service time is the cleanest live rendering of the paper's Fig. 9
	// stage overlap: while a Conv node's simulated device holds image i's
	// tile, the Central runs image i-1's back layers and encodes image
	// i+1's tiles — work the sequential loop can only do while the nodes
	// sit idle. Larger grids bury the overlappable Central stage under
	// per-tile transport overhead that lives inside the Conv chain either
	// way.
	const (
		nodes         = 4
		pipelineDepth = 3
		tileDelay     = 4 * time.Millisecond
	)
	warmup := max(images/5, 2)
	rep := &StreamBenchReport{
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		Host:          telemetry.HostInfo(),
		Model:         models.VGGSim().Name,
		Grid:          "2x2",
		Nodes:         nodes,
		PipelineDepth: pipelineDepth,
		TileDelayMs:   ms(tileDelay),
	}
	var err error
	rep.LiveSequential, rep.LivePipelined, err = livePipelineComparison(
		models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, nodes, images, warmup, pipelineDepth, tileDelay, trace)
	if err != nil {
		return nil, err
	}
	rep.PipelineGain = rep.LivePipelined.ThroughputIPS / rep.LiveSequential.ThroughputIPS
	return rep, nil
}

// WriteText renders the sequential-vs-pipelined comparison.
func (r *StreamBenchReport) WriteText(w io.Writer) {
	fprintf(w, "Live streaming (%s %s, %d nodes, %s/%s, %d CPUs): sequential vs Pipeline(depth=%d), %.0fms/tile Conv service time\n",
		r.Model, r.Grid, r.Nodes, r.GOOS, r.GOARCH, r.NumCPU, r.PipelineDepth, r.TileDelayMs)
	fprintf(w, "  %-20s %10s %12s %12s\n", "mode", "imgs/sec", "mean(ms)", "p95(ms)")
	for _, row := range []struct {
		name string
		run  StreamBenchRun
	}{{"sequential", r.LiveSequential}, {"pipelined", r.LivePipelined}} {
		fprintf(w, "  %-20s %10.2f %12.2f %12.2f\n",
			row.name, row.run.ThroughputIPS, row.run.MeanLatencyMs, row.run.P95LatencyMs)
	}
	fprintf(w, "  pipelining gain: %.2fx throughput\n", r.PipelineGain)
}
