package experiments

import (
	"context"
	"io"
	"math/rand"
	"sort"
	"time"

	"adcnn/internal/compress"
	"adcnn/internal/core"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// StreamBenchRun is one measured pass of the live pipelined stream.
type StreamBenchRun struct {
	Images        int     `json:"images"`
	ThroughputIPS float64 `json:"throughput_ips"`
	MeanLatencyMs float64 `json:"mean_latency_ms"`
	P95LatencyMs  float64 `json:"p95_latency_ms"`
}

// StreamBenchReport pins two properties of the live runtime hot path.
//
// First, telemetry overhead: the same image stream is run through a real
// Central + Conv-node cluster (loopback TCP) with telemetry
// disabled and then fully enabled (metrics registry + tracer + wire
// metering + compression instruments), and the throughput delta is the
// cost of observability. The acceptance bound is < 2% regression.
//
// Second, pipelining gain: with a per-tile worker delay standing in for
// real Conv-node compute, the same stream is run once sequentially
// (Infer loop) and once through a bounded Pipeline, so image i+1's
// tiles are in flight while image i's results are still collecting —
// the live counterpart of the simulator's three-stage overlap
// (paper Fig. 9). Pipelined throughput must beat sequential.
type StreamBenchReport struct {
	Timestamp string `json:"timestamp"`
	telemetry.Host
	Model          string         `json:"model"`
	Grid           string         `json:"grid"`
	Nodes          int            `json:"nodes"`
	Disabled       StreamBenchRun `json:"telemetry_disabled"`
	Enabled        StreamBenchRun `json:"telemetry_enabled"`
	OverheadPct    float64        `json:"overhead_pct"` // (off-on)/off × 100; negative = noise
	LiveGrid       string         `json:"live_grid"`    // partition used by the live passes
	PipelineDepth  int            `json:"pipeline_depth"`
	TileDelayMs    float64        `json:"tile_delay_ms"` // simulated Conv service time per tile
	LiveSequential StreamBenchRun `json:"live_sequential"`
	LivePipelined  StreamBenchRun `json:"live_pipelined"`
	PipelineGain   float64        `json:"pipeline_gain"` // pipelined / sequential throughput
	// PhaseMeansMs is the mean per-tile latency decomposition from the
	// telemetry-enabled pass (dispatch_queue, uplink, node_queue,
	// compute, downlink, collect), and PhaseSumVsTotalPct the relative
	// gap between the summed phases and the measured end-to-end tile
	// latency — ~0 by construction, tracked so a regression in the
	// reconstruction shows up in the persisted report.
	PhaseMeansMs       map[string]float64 `json:"phase_means_ms,omitempty"`
	PhaseTiles         int                `json:"phase_tiles,omitempty"`
	PhaseSumVsTotalPct float64            `json:"phase_sum_vs_total_pct"`
}

// summarize folds per-image latencies and the wall clock into a run row.
func summarize(images int, lat []float64, wall time.Duration) StreamBenchRun {
	sort.Float64s(lat)
	var sum float64
	for _, v := range lat {
		sum += v
	}
	return StreamBenchRun{
		Images:        images,
		ThroughputIPS: float64(images) / wall.Seconds(),
		MeanLatencyMs: sum / float64(len(lat)),
		P95LatencyMs:  lat[(len(lat)*95)/100],
	}
}

// measureStream pushes images through the runtime one at a time and
// reports wall-clock throughput and per-image latency. observe, when
// non-nil, sees every measured image's stats (for phase accumulation).
func measureStream(c *core.Central, images, warmup int, observe func(core.InferStats)) (StreamBenchRun, error) {
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(7)), 1)
	for i := 0; i < warmup; i++ {
		if _, _, err := c.Infer(x); err != nil {
			return StreamBenchRun{}, err
		}
	}
	lat := make([]float64, 0, images)
	start := time.Now()
	for i := 0; i < images; i++ {
		_, st, err := c.Infer(x)
		if err != nil {
			return StreamBenchRun{}, err
		}
		lat = append(lat, ms(st.Latency))
		if observe != nil {
			observe(st)
		}
	}
	return summarize(images, lat, time.Since(start)), nil
}

// measurePipelined streams the same images through a bounded Pipeline so
// successive images overlap. Per-image latency includes queue wait, so it
// rises with depth even as throughput improves — that trade is the point.
func measurePipelined(c *core.Central, images, warmup, depth int) (StreamBenchRun, error) {
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(7)), 1)
	for i := 0; i < warmup; i++ {
		if _, _, err := c.Infer(x); err != nil {
			return StreamBenchRun{}, err
		}
	}
	p := core.NewPipeline(c, depth)
	in := make(chan *tensor.Tensor)
	go func() {
		defer close(in)
		for i := 0; i < images; i++ {
			in <- x
		}
	}()
	lat := make([]float64, 0, images)
	start := time.Now()
	for r := range p.Run(context.Background(), in) {
		if r.Err != nil {
			return StreamBenchRun{}, r.Err
		}
		lat = append(lat, ms(r.Stats.Latency))
	}
	return summarize(images, lat, time.Since(start)), nil
}

// livePipelineComparison runs the sequential-vs-pipelined passes on fresh
// runtimes whose workers sleep delay per tile, standing in for Conv-node
// compute that the Central can overlap with its own back layers.
func livePipelineComparison(opt models.Options, nodes, images, warmup, depth int, delay time.Duration) (seq, pipe StreamBenchRun, err error) {
	run := func(measure func(*core.Central) (StreamBenchRun, error)) (StreamBenchRun, error) {
		c, _, stop, err := liveCentral(opt, nodes, func(w *core.Worker) { w.SetDelay(delay) }, core.CentralConfig{})
		if err != nil {
			return StreamBenchRun{}, err
		}
		defer stop()
		return measure(c)
	}
	seq, err = run(func(c *core.Central) (StreamBenchRun, error) {
		return measureStream(c, images, warmup, nil)
	})
	if err != nil {
		return seq, pipe, err
	}
	pipe, err = run(func(c *core.Central) (StreamBenchRun, error) {
		return measurePipelined(c, images, warmup, depth)
	})
	return seq, pipe, err
}

// StreamBench runs the telemetry-overhead experiment. The trace, when
// non-nil, is attached to the telemetry-enabled pass so the run doubles
// as a timeline capture.
func StreamBench(images int, trace *telemetry.Trace) (*StreamBenchReport, error) {
	const nodes = 4
	warmup := images / 5
	if warmup < 2 {
		warmup = 2
	}
	opt := models.Options{
		Grid:   fdsp.Grid{Rows: 4, Cols: 4},
		ClipLo: 0.05, ClipHi: 2.0, QuantBits: 4, // exercise the full compress path
	}

	rep := &StreamBenchReport{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Host:      telemetry.HostInfo(),
		Model:     models.VGGSim().Name,
		Grid:      "4x4",
		Nodes:     nodes,
	}

	// Pass 1: telemetry fully disabled.
	c, _, stop, err := liveCentral(opt, nodes, nil, core.CentralConfig{})
	if err != nil {
		return nil, err
	}
	rep.Disabled, err = measureStream(c, images, warmup, nil)
	stop()
	if err != nil {
		return nil, err
	}

	// Pass 2: everything on — metrics registry shared by Central and
	// workers, wire metering, compression instruments, tracer.
	reg := telemetry.NewRegistry()
	met := core.NewMetrics(reg)
	compress.Instrument(reg)
	defer compress.Instrument(nil)
	// The SLO engine and flight recorder run live during the enabled pass
	// so the <2% overhead gate covers the whole observability layer, not
	// just the counters: window rotation, burn evaluation, health EWMAs.
	c, _, stop, err = liveCentral(opt, nodes, func(w *core.Worker) { w.Metrics = met }, core.CentralConfig{
		Metrics: met, Trace: trace, Flight: telemetry.NewFlightRecorder(0),
	})
	if err != nil {
		return nil, err
	}
	sloCtx, sloStop := context.WithCancel(context.Background())
	engine := core.NewSLOEngine(met, core.SLOConfig{})
	c.WireSLO(engine)
	go engine.Run(sloCtx, 0)
	var phaseSum [core.NumPhases]time.Duration
	var totalSum, phaseAll time.Duration
	tiles := 0
	rep.Enabled, err = measureStream(c, images, warmup, func(st core.InferStats) {
		if st.Breakdown == nil {
			return
		}
		for i := range st.Breakdown.Tiles {
			t := &st.Breakdown.Tiles[i]
			for p := range t.Phase {
				phaseSum[p] += t.Phase[p]
			}
			phaseAll += t.PhaseSum()
			totalSum += t.Total
			tiles++
		}
	})
	sloStop()
	stop()
	if err != nil {
		return nil, err
	}
	if tiles > 0 {
		rep.PhaseMeansMs = make(map[string]float64, core.NumPhases)
		for p := 0; p < core.NumPhases; p++ {
			rep.PhaseMeansMs[core.PhaseNames[p]] = ms(phaseSum[p] / time.Duration(tiles))
		}
		rep.PhaseTiles = tiles
		if totalSum > 0 {
			gap := phaseAll - totalSum
			if gap < 0 {
				gap = -gap
			}
			rep.PhaseSumVsTotalPct = float64(gap) / float64(totalSum) * 100
		}
	}

	rep.OverheadPct = (rep.Disabled.ThroughputIPS - rep.Enabled.ThroughputIPS) /
		rep.Disabled.ThroughputIPS * 100

	// Passes 3+4: live sequential vs pipelined. One tile per node (2x2
	// grid on 4 nodes) with a fixed per-tile service time is the cleanest
	// live rendering of the paper's Fig. 9 stage overlap: while a Conv
	// node's simulated device holds image i's tile, the Central runs
	// image i-1's back layers and encodes image i+1's tiles — work the
	// sequential loop can only do while the nodes sit idle. Larger grids
	// bury the overlappable Central stage under per-tile transport
	// overhead that lives inside the Conv chain either way.
	const (
		pipelineDepth = 3
		tileDelay     = 4 * time.Millisecond
	)
	liveOpt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	rep.LiveGrid = "2x2"
	rep.PipelineDepth = pipelineDepth
	rep.TileDelayMs = ms(tileDelay)
	rep.LiveSequential, rep.LivePipelined, err =
		livePipelineComparison(liveOpt, nodes, images, warmup, pipelineDepth, tileDelay)
	if err != nil {
		return nil, err
	}
	rep.PipelineGain = rep.LivePipelined.ThroughputIPS / rep.LiveSequential.ThroughputIPS
	return rep, nil
}

// WriteText renders the overhead comparison.
func (r *StreamBenchReport) WriteText(w io.Writer) {
	fprintf(w, "Live-stream telemetry overhead (%s %s, %d nodes, %s/%s, %d CPUs)\n",
		r.Model, r.Grid, r.Nodes, r.GOOS, r.GOARCH, r.NumCPU)
	fprintf(w, "  %-20s %10s %12s %12s\n", "telemetry", "imgs/sec", "mean(ms)", "p95(ms)")
	for _, row := range []struct {
		name string
		run  StreamBenchRun
	}{{"disabled", r.Disabled}, {"enabled", r.Enabled}} {
		fprintf(w, "  %-20s %10.2f %12.2f %12.2f\n",
			row.name, row.run.ThroughputIPS, row.run.MeanLatencyMs, row.run.P95LatencyMs)
	}
	fprintf(w, "  overhead: %.2f%% of throughput\n", r.OverheadPct)
	if r.PhaseTiles > 0 {
		fprintf(w, "  phase means over %d tiles (ms):", r.PhaseTiles)
		for p := 0; p < core.NumPhases; p++ {
			name := core.PhaseNames[p]
			fprintf(w, " %s=%.3f", name, r.PhaseMeansMs[name])
		}
		fprintf(w, "  (phase-sum vs total gap %.3f%%)\n", r.PhaseSumVsTotalPct)
	}
	fprintf(w, "Live streaming (%s grid): sequential Infer loop vs Pipeline(depth=%d), %.0fms/tile Conv service time\n",
		r.LiveGrid, r.PipelineDepth, r.TileDelayMs)
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
