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
	"strings"
	"time"

	"adcnn/internal/cliutil"
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

// startCentral dials every Conv node in addrs (each with a reconnect
// dialer) into cfg's connections and starts the Central. When cfg
// carries Metrics it also starts the SLO engine over them: a breach
// dumps the flight ring (naming the objective and the worst-health
// node) and fails /healthz so a load balancer drains us. The engine is
// nil without Metrics.
func startCentral(logger *slog.Logger, cfg core.CentralConfig, addrs []string, connectTimeout time.Duration, slo core.SLOConfig) (*core.Central, *telemetry.SLOEngine, error) {
	for _, addr := range addrs {
		nc, err := dialNode(addr, connectTimeout)
		if err != nil {
			for _, c := range cfg.Conns {
				c.Close()
			}
			return nil, nil, err
		}
		cfg.Conns = append(cfg.Conns, core.NewStreamConn(nc))
		cfg.Dialers = append(cfg.Dialers, redialer(addr))
	}
	cen, err := cfg.Start()
	if err != nil || cfg.Metrics == nil {
		return cen, nil, err
	}
	engine := core.NewSLOEngine(cfg.Metrics, slo)
	cen.WireSLO(engine)
	engine.Subscribe(func(tr telemetry.SLOTransition) {
		logger.Warn("slo transition", "objective", tr.Objective,
			"from", tr.FromName, "to", tr.ToName, "detail", tr.Detail)
	})
	go engine.Run(context.Background(), 0)
	return cen, engine, nil
}

// sloCheck is the /healthz and /readyz check: it fails while engine is
// in breach.
func sloCheck(engine *telemetry.SLOEngine) func() error {
	return func() error {
		if engine.Breached() {
			return fmt.Errorf("slo breach: %+v", engine.Status())
		}
		return nil
	}
}

// sessionsHandler serves the Central's node-session snapshot as a JSON
// list, one entry per node, for mounting at /debug/sessions.
func sessionsHandler(cen *core.Central) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(cen.DebugSessions())
	})
}

func main() {
	nodeList := flag.String("nodes", "127.0.0.1:9001", "comma-separated Conv node addresses")
	mf := cliutil.RegisterModelFlags(flag.CommandLine)
	images := flag.Int("images", 10, "number of synthetic images to run (at least 1)")
	tl := flag.Duration("tl", 5*time.Second, "result wait deadline T_L")
	gamma := flag.Float64("gamma", 0.9, "statistics decay γ")
	verify := flag.Bool("verify", true, "check outputs against local execution")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /debug/pprof, /debug/flight, /debug/sessions and /debug/sched on this address (e.g. :9090)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON timeline (central + conv-side spans) to this file")
	connectTimeout := flag.Duration("connect-timeout", 30*time.Second, "total dial budget per conv node (retry with backoff)")
	pipeline := flag.Int("pipeline", 0, "keep up to this many images in flight (0 = one at a time)")
	breakdown := flag.Bool("breakdown", false, "print the per-image mean phase decomposition after each image")
	flightSize := flag.Int("flight-size", telemetry.DefaultFlightSize, "flight recorder ring capacity (events)")
	sloP99 := flag.Duration("slo-p99", 250*time.Millisecond, "SLO: p99 tile round-trip latency objective (0 disables)")
	sloMiss := flag.Float64("slo-miss-budget", core.DefaultMissBudget, "SLO: tolerated zero-fill fraction (0 disables)")
	sloFast := flag.Duration("slo-fast", core.DefaultSLOWindows[0], "SLO: fast burn-rate window")
	sloSlow := flag.Duration("slo-slow", core.DefaultSLOWindows[1], "SLO: slow burn-rate window")
	lf := cliutil.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	logger := cliutil.MustLogger(lf, "adcnn-central")
	die := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	simCfg, err := cliutil.SimConfigByName(mf.Name)
	if err != nil {
		die("bad -model", "err", err)
	}
	if *images < 1 {
		die("bad -images: want at least 1", "images", *images)
	}
	// The oracle instance -verify runs locally; the Central gets its own
	// from the same recipe (same seed, same weights): it serializes
	// back-layer execution per instance, and the oracle must not contend
	// on its scratch state.
	oracle, err := mf.Build()
	if err != nil {
		die("build model", "err", err)
	}
	mf.Log(logger, oracle)
	cfg := core.CentralConfig{
		TL: *tl, Gamma: *gamma,
		// The flight recorder is cheap (a mutex-guarded ring) and is
		// what explains a missed deadline after the fact, so it is
		// always on; the metrics address only decides whether it is
		// reachable over HTTP.
		Flight: telemetry.NewFlightRecorder(*flightSize),
	}
	if cfg.Model, err = mf.Build(); err != nil {
		die("build model", "err", err)
	}
	if *metricsAddr != "" {
		cfg.Metrics = core.NewMetrics(telemetry.NewRegistry())
		telemetry.RegisterBuildInfo(cfg.Metrics.Registry, "central", tensor.DetectedKernelTier().String())
		// Scheduler decision audit: every Algorithm 3 reallocation lands
		// in the ring served at /debug/sched and logged at Debug level.
		cfg.Metrics.Audit = sched.NewAudit(0, logger)
	}
	if *tracePath != "" {
		cfg.Trace = telemetry.NewTrace()
	}
	var addrs []string
	for _, addr := range strings.Split(*nodeList, ",") {
		addrs = append(addrs, strings.TrimSpace(addr))
	}
	cen, engine, err := startCentral(logger, cfg, addrs, *connectTimeout, core.SLOConfig{
		TileP99:    disableZero(sloP99.Seconds()),
		MissBudget: disableZero(*sloMiss),
		FastWindow: *sloFast,
		SlowWindow: *sloSlow,
	})
	if err != nil {
		die("start central", "err", err)
	}
	logger.Info("central up", "nodes", len(addrs))

	if cfg.Metrics != nil {
		check := sloCheck(engine)
		mux := telemetry.MuxChecks(cfg.Metrics.Registry, check, check)
		mux.Handle("/debug/flight", cfg.Flight)
		mux.Handle("/debug/sched", cfg.Metrics.Audit)
		mux.Handle("/debug/sessions", sessionsHandler(cen))
		_, bound, err := telemetry.ServeMux(*metricsAddr, mux)
		if err != nil {
			die("metrics server", "err", err)
		}
		logger.Info("debug endpoints up", "addr", bound.String(),
			"paths", "/metrics /healthz /readyz /debug/pprof /debug/flight /debug/sessions /debug/sched")
	}

	set, err := synthSet(simCfg, *images, mf.Seed+100)
	if err != nil {
		die("build dataset", "err", err)
	}
	// In the int8 operating mode the distributed run quantizes each tile
	// with its own affine while the local oracle quantizes the whole
	// image, so outputs agree only to within accumulated quantization
	// error — the verify tolerance widens accordingly.
	verifyTol := float32(1e-4)
	if mf.Quantized {
		verifyTol = 5e-2
	}

	// Submit from a feeder goroutine (Submit blocks while -pipeline
	// images are in flight) and collect in submission order here. pend
	// holds a handle per admission slot, so the feeder keeps every slot
	// busy while the collector waits on the oldest image.
	depth := max(*pipeline, 1)
	pipe := core.NewPipeline(cen, depth)
	pend := make(chan *core.Inflight, depth)
	go func() {
		defer close(pend)
		for i := 0; i < *images; i++ {
			x, _ := set.Batch(i, 1)
			h, err := pipe.Submit(context.Background(), x)
			if err != nil {
				die("submit image", "image", i, "err", err)
			}
			pend <- h
		}
	}()

	wallStart := time.Now()
	var total time.Duration
	mismatches, i := 0, 0
	for h := range pend {
		out, st, err := h.Wait()
		if err != nil {
			die("image failed", "image", i, "err", err)
		}
		total += st.Latency
		status := ""
		if *verify {
			x, _ := set.Batch(i, 1)
			if !out.Equal(oracle.Net.Forward(x, false), verifyTol) {
				status += "  MISMATCH vs local"
				mismatches++
			}
		}
		fmt.Printf("image %2d: latency %8v  missed %d  alloc %v%s\n",
			i, st.Latency.Round(time.Microsecond), st.TilesMissed, st.Alloc, status)
		if *breakdown {
			st.Breakdown.WriteText(os.Stdout)
		}
		logger.Debug("image complete",
			"image", i, "trace_id", core.TraceIDString(st.TraceID),
			"latency", st.Latency, "missed", st.TilesMissed)
		i++
	}
	wall := time.Since(wallStart)
	fmt.Printf("mean latency: %v over %d images; throughput %.2f imgs/s; %d mismatches\n",
		(total / time.Duration(*images)).Round(time.Microsecond), *images,
		float64(*images)/wall.Seconds(), mismatches)

	cen.Shutdown()
	if cfg.Trace != nil {
		if err := cfg.Trace.WriteFile(*tracePath); err != nil {
			logger.Error("write trace", "err", err)
		} else {
			logger.Info("wrote trace", "path", *tracePath, "events", cfg.Trace.Len())
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
