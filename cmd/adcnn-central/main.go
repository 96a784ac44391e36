// Command adcnn-central runs the ADCNN Central node over TCP: it builds
// the model (same seed as the Conv nodes so weights match, or loads a
// shared snapshot), connects to the Conv nodes, streams synthetic input
// images through the distributed pipeline, and reports per-image latency,
// tile allocation, and agreement with local execution.
//
// Usage:
//
//	adcnn-central -nodes 127.0.0.1:9001,127.0.0.1:9002 -model vgg-sim -grid 4x4 -images 10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"adcnn/internal/cliutil"
	"adcnn/internal/compress"
	"adcnn/internal/core"
	"adcnn/internal/dataset"
	"adcnn/internal/models"
	"adcnn/internal/sched"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// disableZero maps a zero flag value to −1, the "objective disabled"
// sentinel of core.SLOConfig (whose own zero means "use the default").
func disableZero(v float64) float64 {
	if v == 0 {
		return -1
	}
	return v
}

// dialNode dials addr with per-attempt timeouts and exponential backoff
// until budget is spent, so a Central started before its Conv nodes
// waits for them instead of exiting immediately.
func dialNode(addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	backoff := 200 * time.Millisecond
	for attempt := 1; ; attempt++ {
		perAttempt := 2 * time.Second
		if rem := time.Until(deadline); rem < perAttempt {
			perAttempt = rem
		}
		if perAttempt <= 0 {
			return nil, fmt.Errorf("dial %s: no conv node after %v", addr, budget)
		}
		c, err := net.DialTimeout("tcp", addr, perAttempt)
		if err == nil {
			return c, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("dial %s: %w (gave up after %d attempts over %v)",
				addr, err, attempt, budget)
		}
		slog.Warn("dial failed, retrying", "addr", addr, "err", err, "backoff", backoff)
		time.Sleep(backoff)
		if backoff *= 2; backoff > 3*time.Second {
			backoff = 3 * time.Second
		}
	}
}

// redialer returns the reconnect dialer for addr: a node session whose
// connection drops mid-run redials (with backoff) instead of staying
// dead forever.
func redialer(addr string) core.Dialer {
	return func(ctx context.Context) (core.Conn, error) {
		d := net.Dialer{}
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return core.NewStreamConn(c), nil
	}
}

// replicaObs is the per-replica observability buildCentral leaves
// behind for the run loop: the SLO engine /healthz consults (nil
// without -metrics-addr) and the tracer written out at exit (nil
// without -trace).
type replicaObs struct {
	engine *telemetry.SLOEngine
	trace  *telemetry.Trace
}

// centralBuilder holds what every replica is built from. One closure,
// buildCentral, turns it into a configured, running Central — whatever
// the replica count, every replica gets the same dialers, link
// settings, flight ring, metrics, SLO engine and tracer.
type centralBuilder struct {
	logger   *slog.Logger
	addrs    []string
	replicas int
	model    func() (*models.Model, error) // a fresh instance per call
	// base is the configuration the replicas share as is: T_L, γ, the
	// link settings and the process-wide flight ring. buildCentral adds
	// what is per replica — model, connections, metrics, tracer.
	base           core.CentralConfig
	connectTimeout time.Duration
	slo            core.SLOConfig
	tracing        bool

	// reg is nil without -metrics-addr: no metrics, no SLO engines.
	reg *telemetry.Registry
	// One audit ring (like the one flight ring) for the whole process:
	// replica reallocations and cluster rebalances interleave in the
	// same decision history, which is the view a postmortem wants.
	audit *sched.Audit

	obs []replicaObs // indexed by replica, filled by buildCentral
}

// buildCentral is core.NewCluster's build function for replica r.
func (b *centralBuilder) buildCentral(r int) (*core.Central, error) {
	// Each replica gets its own model instance (same seed, same weights,
	// so all replicas compute identical back layers) — Central serializes
	// back-layer execution per instance, and neither another replica nor
	// the -verify oracle may contend on its scratch state.
	cfg := b.base
	var err error
	if cfg.Model, err = b.model(); err != nil {
		return nil, err
	}
	for _, addr := range b.addrs {
		nc, err := dialNode(addr, b.connectTimeout)
		if err != nil {
			for _, c := range cfg.Conns {
				c.Close()
			}
			return nil, err
		}
		cfg.Conns = append(cfg.Conns, core.NewStreamConn(nc))
		cfg.Dialers = append(cfg.Dialers, redialer(addr))
	}
	obs := &b.obs[r]
	if b.reg != nil {
		// A lone Central keeps the unlabeled metric schema; replicas
		// sharing the registry each get the replica-labeled one.
		if b.replicas == 1 {
			cfg.Metrics = core.NewMetrics(b.reg)
		} else {
			cfg.Metrics = core.NewReplicaMetrics(b.reg, strconv.Itoa(r))
		}
		// Scheduler decision audit: every Algorithm 3 reallocation lands
		// in the ring served at /debug/sched and logged at Debug level.
		cfg.Metrics.Sched.AttachAudit(b.audit)
		obs.engine = core.NewSLOEngine(cfg.Metrics, b.slo)
	}
	if b.tracing {
		obs.trace = telemetry.NewTrace()
		cfg.Trace = obs.trace
	}
	cen, err := cfg.Start()
	if err != nil {
		return nil, err
	}
	if obs.engine != nil {
		// SLO engine over the windowed instruments: a breach dumps the
		// flight ring (naming the objective and the worst-health node)
		// and fails /healthz so a load balancer drains us.
		cen.WireSLO(obs.engine)
		obs.engine.Subscribe(func(tr telemetry.SLOTransition) {
			b.logger.Warn("slo transition", "replica", r, "objective", tr.Objective,
				"from", tr.FromName, "to", tr.ToName, "detail", tr.Detail)
		})
		go obs.engine.Run(context.Background(), 0)
	}
	return cen, nil
}

// breached is the /healthz and /readyz check: it fails while any
// replica's SLO engine is in breach.
func (b *centralBuilder) breached() error {
	for r, o := range b.obs {
		if o.engine.Breached() {
			return fmt.Errorf("slo breach on replica %d: %+v", r, o.engine.Status())
		}
	}
	return nil
}

// tracePath names replica r's trace file: path itself for a lone
// Central, path with ".r<r>" before the extension otherwise.
func (b *centralBuilder) tracePath(path string, r int) string {
	if b.replicas == 1 {
		return path
	}
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.r%d%s", strings.TrimSuffix(path, ext), r, ext)
}

// sessionsHandler serves every replica's node-session snapshot as JSON,
// keyed by replica index, for mounting at /debug/sessions.
func sessionsHandler(cl *core.Cluster) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		all := make(map[string][]core.SessionDebug, cl.Replicas())
		for r := 0; r < cl.Replicas(); r++ {
			all[strconv.Itoa(r)] = cl.Replica(r).DebugSessions()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(all)
	})
}

func main() {
	nodeList := flag.String("nodes", "127.0.0.1:9001", "comma-separated Conv node addresses")
	model := flag.String("model", "vgg-sim", "model short name")
	grid := flag.String("grid", "4x4", "FDSP partition")
	seed := flag.Int64("seed", 42, "weight seed shared with conv nodes")
	images := flag.Int("images", 10, "number of synthetic images to run")
	tl := flag.Duration("tl", 5*time.Second, "result wait deadline T_L")
	gamma := flag.Float64("gamma", 0.9, "statistics decay γ")
	weights := flag.String("weights", "", "optional weight snapshot for the full net")
	clipLo := flag.Float64("clip-lo", 0, "clipped ReLU lower bound")
	clipHi := flag.Float64("clip-hi", 0, "clipped ReLU upper bound")
	quant := flag.Int("quant", 0, "quantization bits (0 = off)")
	quantized := flag.Bool("quantized", false, "int8 operating mode: quantize weights per channel, send quantized tiles, run the back layers through the int8 path")
	verify := flag.Bool("verify", true, "check outputs against local execution")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /debug/pprof, /debug/flight, /debug/sessions and /debug/sched on this address (e.g. :9090)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON timeline (central + conv-side spans) to this file; with -replicas N, one file per replica (out.r0.json, ...)")
	connectTimeout := flag.Duration("connect-timeout", 30*time.Second, "total dial budget per conv node (retry with backoff)")
	pipeline := flag.Int("pipeline", 0, "keep up to this many images in flight per replica (0 = one at a time)")
	replicas := flag.Int("replicas", 1, "run this many Central replicas over the same conv pool (each conv node serves one session per replica)")
	breakdown := flag.Bool("breakdown", false, "print the per-image mean phase decomposition after each image")
	flightSize := flag.Int("flight-size", telemetry.DefaultFlightSize, "flight recorder ring capacity (events)")
	sloP99 := flag.Duration("slo-p99", 250*time.Millisecond, "SLO: p99 tile round-trip latency objective (0 disables)")
	sloMiss := flag.Float64("slo-miss-budget", core.DefaultMissBudget, "SLO: tolerated zero-fill fraction (0 disables)")
	sloFast := flag.Duration("slo-fast", core.DefaultSLOWindows[0], "SLO: fast burn-rate window")
	sloSlow := flag.Duration("slo-slow", core.DefaultSLOWindows[1], "SLO: slow burn-rate window")
	probeInterval := flag.Duration("probe-interval", time.Second, "link probe period per node session, keeping RTT estimates fresh through idle periods (0 disables)")
	linkAware := flag.Bool("link-aware", false, "fold measured link transfer costs into the tile allocation (sched.EffectiveSpeeds)")
	lf := cliutil.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	logger := cliutil.MustLogger(lf, "adcnn-central")
	die := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	cfg, err := cliutil.SimConfigByName(*model)
	if err != nil {
		die("bad -model", "err", err)
	}
	g, err := cliutil.ParseGrid(*grid)
	if err != nil {
		die("bad -grid", "err", err)
	}
	if *replicas < 1 {
		die("bad -replicas", "replicas", *replicas)
	}
	buildModel := func() (*models.Model, error) {
		m, err := models.Build(cfg, models.Options{
			Grid: g, ClipLo: float32(*clipLo), ClipHi: float32(*clipHi), QuantBits: *quant,
			Int8: *quantized,
		}, *seed)
		if err != nil {
			return nil, err
		}
		if *weights != "" {
			f, err := os.Open(*weights)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			if err := m.Net.LoadParams(f); err != nil {
				return nil, err
			}
		}
		if *quantized {
			if _, err := m.QuantizeInt8(); err != nil {
				return nil, err
			}
		}
		return m, nil
	}
	// The oracle instance -verify runs locally; every replica builds its
	// own from the same recipe.
	oracle, err := buildModel()
	if err != nil {
		die("build model", "err", err)
	}
	if *quantized {
		logger.Info("int8 inference enabled", "quantized_uplink", oracle.Int8InputOK())
	}
	if oracle.Opt.Clipped() && *quant > 0 {
		// Same line the conv nodes emit, so mismatched clip/quant flags
		// between the two ends show up immediately in the logs.
		q := compress.NewPipeline(*quant, oracle.Opt.ClipHi-oracle.Opt.ClipLo).Quantizer()
		logger.Info("boundary codec",
			"bits", *quant, "range", oracle.Opt.ClipHi-oracle.Opt.ClipLo,
			"step", q.Step(), "zero_threshold", q.ZeroThreshold())
	}

	b := &centralBuilder{
		logger: logger, replicas: *replicas, model: buildModel,
		base: core.CentralConfig{
			TL: *tl, Gamma: *gamma, ProbeEvery: *probeInterval, LinkAware: *linkAware,
			// The flight recorder is cheap (a mutex-guarded ring) and is
			// what explains a missed deadline after the fact, so it is
			// always on; the metrics address only decides whether it is
			// reachable over HTTP.
			Flight: telemetry.NewFlightRecorder(*flightSize),
		},
		connectTimeout: *connectTimeout,
		slo: core.SLOConfig{
			TileP99:    disableZero(sloP99.Seconds()),
			MissBudget: disableZero(*sloMiss),
			FastWindow: *sloFast,
			SlowWindow: *sloSlow,
		},
		tracing: *tracePath != "",
		audit:   sched.NewAudit(0, logger),
		obs:     make([]replicaObs, *replicas),
	}
	for _, addr := range strings.Split(*nodeList, ",") {
		b.addrs = append(b.addrs, strings.TrimSpace(addr))
	}
	if *metricsAddr != "" {
		b.reg = telemetry.NewRegistry()
		compress.Instrument(b.reg)
		telemetry.RegisterBuildInfo(b.reg, "central", tensor.DetectedKernelTier().String())
	}

	// One run path for every replica count: N full Centrals — each with
	// its own connections, statistics and pending table — drive the Conv
	// pool through core.Cluster, which partitions node capacity by demand
	// and steals queued images between replicas. With one replica that
	// reduces to a bounded pipeline over a single Central.
	depth := *pipeline
	if depth < 1 {
		depth = 1
	}
	cl, err := core.NewCluster(b.buildCentral, core.ClusterOptions{
		Replicas: *replicas, Depth: depth, Registry: b.reg, Audit: b.audit,
	})
	if err != nil {
		die("start central", "err", err)
	}
	logger.Info("central up", "replicas", *replicas, "nodes", len(b.addrs))

	if b.reg != nil {
		mux := telemetry.MuxChecks(b.reg, b.breached, b.breached)
		mux.Handle("/debug/flight", b.base.Flight)
		mux.Handle("/debug/sched", b.audit)
		mux.Handle("/debug/sessions", sessionsHandler(cl))
		_, bound, err := telemetry.ServeMux(*metricsAddr, mux)
		if err != nil {
			die("metrics server", "err", err)
		}
		logger.Info("debug endpoints up", "addr", bound.String(),
			"paths", "/metrics /healthz /readyz /debug/pprof /debug/flight /debug/sessions /debug/sched")
	}

	set, err := synthSet(cfg, *images, *seed+100)
	if err != nil {
		die("build dataset", "err", err)
	}
	// In the int8 operating mode the distributed run quantizes each tile
	// with its own affine while the local oracle quantizes the whole
	// image, so outputs agree only to within accumulated quantization
	// error — the verify tolerance widens accordingly.
	verifyTol := float32(1e-4)
	if *quantized {
		verifyTol = 5e-2
	}

	// Submit round-robin across replica origins from a feeder goroutine
	// (Submit blocks on admission once a replica's queue is full) and
	// collect in submission order here.
	pend := make(chan (<-chan core.ClusterResult), *replicas*4)
	go func() {
		defer close(pend)
		for i := 0; i < *images; i++ {
			x, _ := set.Batch(i, 1)
			ch, err := cl.Submit(context.Background(), i%*replicas, x)
			if err != nil {
				ec := make(chan core.ClusterResult, 1)
				ec <- core.ClusterResult{Origin: i % *replicas, Err: err}
				ch = ec
			}
			pend <- ch
		}
	}()

	wallStart := time.Now()
	var total time.Duration
	mismatches, i := 0, 0
	executed := make([]int, *replicas)
	for ch := range pend {
		r := <-ch
		if r.Err != nil {
			die("image failed", "image", i, "err", r.Err)
		}
		executed[r.Replica]++
		total += r.Stats.Latency
		status := ""
		if r.Replica != r.Origin {
			status = fmt.Sprintf(" (stolen %d<-%d)", r.Replica, r.Origin)
		}
		if *verify {
			x, _ := set.Batch(i, 1)
			if !r.Out.Equal(oracle.Net.Forward(x, false), verifyTol) {
				status += "  MISMATCH vs local"
				mismatches++
			}
		}
		fmt.Printf("image %2d: replica %d  latency %8v  missed %d  alloc %v%s\n",
			i, r.Replica, r.Stats.Latency.Round(time.Microsecond),
			r.Stats.TilesMissed, r.Stats.Alloc, status)
		if *breakdown {
			r.Stats.Breakdown.WriteText(os.Stdout)
		}
		logger.Debug("image complete",
			"image", i, "replica", r.Replica, "trace_id", core.TraceIDString(r.Stats.TraceID),
			"latency", r.Stats.Latency, "missed", r.Stats.TilesMissed)
		i++
	}
	wall := time.Since(wallStart)
	fmt.Printf("mean latency: %v over %d images; throughput %.2f imgs/s; %d mismatches\n",
		(total / time.Duration(*images)).Round(time.Microsecond), *images,
		float64(*images)/wall.Seconds(), mismatches)
	fmt.Printf("executed per replica %v; steals %v\n", executed, cl.Steals())

	cl.Shutdown()
	for r, o := range b.obs {
		if o.trace == nil {
			continue
		}
		path := b.tracePath(*tracePath, r)
		if err := o.trace.WriteFile(path); err != nil {
			logger.Error("write trace", "err", err)
		} else {
			logger.Info("wrote trace", "path", path, "events", o.trace.Len())
		}
	}
	if mismatches > 0 {
		os.Exit(1)
	}
}

func synthSet(cfg models.Config, n int, seed int64) (*dataset.Set, error) {
	switch cfg.Task {
	case models.TaskClassify:
		return dataset.Classification(n, cfg.Classes, cfg.InputC, cfg.InputH, cfg.InputW, 0.15, seed), nil
	case models.TaskSegment:
		return dataset.Segmentation(n, cfg.Classes, cfg.InputC, cfg.InputH, cfg.InputW, seed), nil
	case models.TaskDetect:
		dh, dw := cfg.TotalDownsample()
		return dataset.Cells(n, cfg.Classes, cfg.InputC, cfg.InputH, cfg.InputW, cfg.InputH/dh, cfg.InputW/dw, seed), nil
	case models.TaskText:
		return dataset.Text(n, cfg.Classes, cfg.InputC, cfg.InputH, seed), nil
	}
	return nil, fmt.Errorf("unknown task")
}
