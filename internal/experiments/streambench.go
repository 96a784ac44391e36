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

// StreamBenchReport pins the live pipelining gain on real compute. The
// same stream is run sequentially (one image at a time) and through a
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
	LiveSequential StreamBenchRun `json:"live_sequential"`
	LivePipelined  StreamBenchRun `json:"live_pipelined"`
	PipelineGain   float64        `json:"pipeline_gain"` // pipelined / sequential throughput
}

// minPass is the shortest measured run of each loop: a run of few
// images on real compute is over in tens of milliseconds, too short to
// time.
const minPass = 200 * time.Millisecond

// streamRounds is how many times the comparison alternates between its
// two loops. Load from the rest of the host comes and goes; alternating
// spreads it over both loops alike instead of landing it on whichever
// loop it happens to overlap.
const streamRounds = 5

// closedLoop drives clients concurrent closed loops over infer, each
// submitting its next image only once infer returned the previous one's
// latency. Its passes accumulate into one run.
type closedLoop struct {
	clients int
	infer   func() (time.Duration, error)
	lat     []float64
	wall    time.Duration
}

// pass runs images in total split across the clients, and more while
// the pass is shorter than least, adding each image's latency and the
// pass's wall-clock time to the loop's run.
func (l *closedLoop) pass(images int, least time.Duration) error {
	lats := make([][]float64, l.clients)
	errs := make(chan error, l.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for o := 0; o < l.clients; o++ {
		count := images / l.clients
		if o < images%l.clients {
			count++
		}
		wg.Add(1)
		go func(o, count int) {
			defer wg.Done()
			for i := 0; i < count || time.Since(start) < least; i++ {
				lat, err := l.infer()
				if err != nil {
					errs <- err
					return
				}
				lats[o] = append(lats[o], ms(lat))
			}
		}(o, count)
	}
	wg.Wait()
	l.wall += time.Since(start)
	select {
	case err := <-errs:
		return err
	default:
	}
	for _, lat := range lats {
		l.lat = append(l.lat, lat...)
	}
	return nil
}

// run reports wall-clock throughput and per-image latency over the
// loop's passes.
func (l *closedLoop) run() StreamBenchRun {
	sort.Float64s(l.lat)
	var sum float64
	for _, v := range l.lat {
		sum += v
	}
	return StreamBenchRun{
		Images:        len(l.lat),
		ThroughputIPS: float64(len(l.lat)) / l.wall.Seconds(),
		MeanLatencyMs: sum / float64(len(l.lat)),
		P95LatencyMs:  l.lat[(len(l.lat)*95)/100],
	}
}

// livePipelineComparison runs a sequential loop (one image at a time)
// and a pipelined one, each through its own metered Central on one pool
// of nodes: warmup unmeasured images per client, then at least images
// each over streamRounds alternating rounds, every loop measured for
// at least minPass in all. The pipelined loop keeps depth images in
// flight through one Pipeline, so the Conv nodes' fronts overlap the
// Central's split and back layers — per-image latency includes the
// admission wait, so it rises with depth even as throughput improves;
// that trade is the point — and its Central carries trace when it is
// non-nil. peak is the most images the pipelined Central held in flight
// as any Submit returned: 1 means it never overlapped two.
func livePipelineComparison(opt models.Options, nodes, images, warmup, depth int, trace *telemetry.Trace) (seq, pipe StreamBenchRun, peak int, err error) {
	cl, err := startLiveCluster(opt, nodes)
	if err != nil {
		return seq, pipe, 0, err
	}
	defer cl.stop()
	cs, err := cl.central(core.CentralConfig{Metrics: core.NewMetrics(telemetry.NewRegistry(), 0)})
	if err != nil {
		return seq, pipe, 0, err
	}
	defer cs.Shutdown()
	met := core.NewMetrics(telemetry.NewRegistry(), 0)
	cp, err := cl.central(core.CentralConfig{Metrics: met, Trace: trace})
	if err != nil {
		return seq, pipe, 0, err
	}
	defer cp.Shutdown()
	p := core.NewPipeline(cp, depth)
	var peakMu sync.Mutex
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(7)), 1)
	loops := []*closedLoop{
		{clients: 1, infer: func() (time.Duration, error) {
			_, st, err := cs.Infer(x)
			return st.Latency, err
		}},
		{clients: depth, infer: func() (time.Duration, error) {
			h, err := p.Submit(context.Background(), x)
			if err != nil {
				return 0, err
			}
			peakMu.Lock()
			peak = max(peak, int(met.InflightImages.Value()))
			peakMu.Unlock()
			_, st, err := h.Wait()
			return st.Latency, err
		}},
	}
	for _, l := range loops {
		if err := l.pass(warmup*l.clients, 0); err != nil {
			return seq, pipe, 0, err
		}
		l.lat, l.wall = nil, 0
	}
	for r := 0; r < streamRounds; r++ {
		for _, l := range loops {
			if err := l.pass((images+streamRounds-1)/streamRounds, minPass/streamRounds); err != nil {
				return seq, pipe, 0, err
			}
		}
	}
	return loops[0].run(), loops[1].run(), peak, nil
}

// StreamBench runs the live pipelining experiment. The trace, when
// non-nil, is attached to the pipelined pass so the run doubles as a
// timeline capture.
func StreamBench(images int, trace *telemetry.Trace) (*StreamBenchReport, error) {
	// One tile per node (2x2 grid on 4 nodes) is the cleanest live
	// rendering of the paper's Fig. 9 stage overlap: while the Conv nodes
	// compute image i's tiles, the Central runs image i-1's back layers
	// and encodes image i+1's tiles — work the sequential loop can only
	// do while the nodes sit idle. Larger grids bury the overlappable
	// Central stage under per-tile transport overhead that lives inside
	// the Conv chain either way.
	const (
		nodes         = 4
		pipelineDepth = 3
	)
	warmup := max(images/5, 2)
	rep := &StreamBenchReport{
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		Host:          telemetry.HostInfo(),
		Model:         models.VGGSim().Name,
		Grid:          "2x2",
		Nodes:         nodes,
		PipelineDepth: pipelineDepth,
	}
	var err error
	rep.LiveSequential, rep.LivePipelined, _, err = livePipelineComparison(
		models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, nodes, images, warmup, pipelineDepth, trace)
	if err != nil {
		return nil, err
	}
	rep.PipelineGain = rep.LivePipelined.ThroughputIPS / rep.LiveSequential.ThroughputIPS
	return rep, nil
}

// WriteText renders the sequential-vs-pipelined comparison.
func (r *StreamBenchReport) WriteText(w io.Writer) {
	fprintf(w, "Live streaming (%s %s, %d nodes, %s/%s, %d CPUs): sequential vs Pipeline(depth=%d), real compute\n",
		r.Model, r.Grid, r.Nodes, r.GOOS, r.GOARCH, r.NumCPU, r.PipelineDepth)
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
