package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	clusterpkg "adcnn/internal/cluster"
	"adcnn/internal/core"
	"adcnn/internal/perfmodel"
	"adcnn/internal/tensor"
)

// Run shape. A run measures for the -seconds it is given; warm-up
// shrinks with -seconds so a short run is short throughout.
// minWindowImages keeps the 95th percentile at ten or more samples
// beyond it even on a host too slow to reach that in time.
const (
	// setupReps is how often a run sets the cluster up and times it;
	// setup_s is the median. The first is the set-up the run needs; the
	// rest follow the window and the peak_rss_mb reading, so they touch
	// neither. One timing would do for the ResNet18 workloads (0.4 s); a
	// ratio bound on the sim model's 5 ms set-up needs the median.
	setupReps       = 5
	warmUpShare     = 0.1 // of -seconds, and at least 20 images
	minWindowImages = 200
	verifyImages    = inputImages // the first pass over the inputs is checked
	traceFileImages = 64          // images written to the Chrome trace file
)

func share(seconds, of float64) time.Duration {
	return time.Duration(of * seconds * float64(time.Second))
}

// report is everything one run produced: the result line, and the
// context a reader of the result file needs to trust it.
type report struct {
	Workload string             `json:"workload"`
	Why      string             `json:"why"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Host     hostInfo           `json:"host"`
	Samples  map[string]int     `json:"samples"` // how many measurements stand behind the timings
	Notes    []string           `json:"notes,omitempty"`
	Checks   map[string]bool    `json:"checks"` // fail-closed conditions; all must hold
	Extra    map[string]float64 `json:"extra,omitempty"`
	// Setups is every timed set-up of the run, in order.
	Setups []float64 `json:"setups_s,omitempty"`
	// BlockRates is images/s of each tenth of the measured window, in
	// order: where in the window a slow stretch fell. No metric uses it.
	BlockRates []float64  `json:"block_images_per_s,omitempty"`
	Result     resultLine `json:"result"`
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks[name] = ok
	if !ok {
		r.Notes = append(r.Notes, name+": "+fmt.Sprintf(format, args...))
	}
}

func (r *report) finish(defs []metricDef, values map[string]float64, attempted, failed int) {
	r.check("no_failed_images", failed == 0, "%d of %d images failed", failed, attempted)
	correct := true
	for _, ok := range r.Checks {
		correct = correct && ok
	}
	r.Result = resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: fill(defs, values)}
}

func newReport(w workload, seed int64, seconds float64, traced bool) *report {
	return &report{
		Workload: w.Name, Why: w.Why, Seed: seed, Seconds: seconds, Traced: traced,
		Host: collectHost(), Samples: map[string]int{}, Checks: map[string]bool{}, Extra: map[string]float64{},
	}
}

// firstImage runs image 0 through a fresh cluster and checks it against
// single-process inference — the last step of set-up.
func (c *cluster) firstImage(inputs []*tensor.Tensor) error {
	out, st, err := c.central.Infer(inputs[0])
	if err != nil {
		return fmt.Errorf("first image: %w", err)
	}
	if st.TilesMissed > 0 {
		return fmt.Errorf("first image: %d tiles missed", st.TilesMissed)
	}
	if !c.outputMatches(inputs[0], out) {
		return fmt.Errorf("first image: output differs from single-process inference")
	}
	return nil
}

// timedSetUp builds a cluster and runs its first verified image, and
// returns how long that took: model builds, QuantizeInt8, listen and
// dial, NewCentral, one image checked against single-process inference.
// The collector runs first so models discarded by an earlier set-up do
// not crowd this one.
func timedSetUp(w workload, inputs []*tensor.Tensor) (*cluster, float64, error) {
	runtime.GC()
	begin := time.Now()
	c, err := startCluster(w, nil)
	if err != nil {
		return nil, 0, err
	}
	if err := c.firstImage(inputs); err != nil {
		c.close()
		return nil, 0, err
	}
	return c, time.Since(begin).Seconds(), nil
}

// verifier keeps the outputs of the first pass over the inputs and
// checks them once the window is over, outside the timed region.
type verifier struct {
	outs [verifyImages]*tensor.Tensor
}

func (v *verifier) keep(r *imageResult) {
	if r.idx < len(v.outs) && !r.failed() {
		v.outs[r.idx] = r.out
	}
}

// check compares the kept outputs with the oracle, counts those beyond
// the tolerance, and records the worst error next to the tolerance it
// was held against.
func (v *verifier) check(c *cluster, inputs []*tensor.Tensor, rep *report) (bad int) {
	checked := 0
	var worst, oracleMax float64
	for i, out := range v.outs {
		if out == nil {
			continue
		}
		checked++
		e, m := c.outputError(inputs[i%len(inputs)], out)
		if !(e <= verifyTol(c.w, m)) { // not e > tol: a NaN fails
			bad++
		}
		if e >= worst {
			worst, oracleMax = e, m
		}
	}
	rep.Samples["verified_outputs"] = checked
	rep.check("outputs_verified", checked > 0, "no output was checked")
	rep.Extra["verify_worst_abs_err"] = worst
	rep.Extra["verify_tol_at_worst"] = verifyTol(c.w, oracleMax)
	return bad
}

// runUntraced is the end-to-end run: timed set-up, warm-up, one measured
// window with no recorder anywhere, output check, more timed set-ups.
func runUntraced(w workload, seed int64, seconds float64) (*report, error) {
	rep := newReport(w, seed, seconds, false)
	inputs := makeInputs(w, seed)

	c, s, err := timedSetUp(w, inputs)
	if err != nil {
		return nil, err
	}
	defer func() { c.close() }()
	setups := []float64{s}

	if err := c.warmUp(inputs, share(seconds, warmUpShare)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var v verifier
	win := c.measure(inputs, share(seconds, 1), minWindowImages, v.keep)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	bad := v.check(c, inputs, rep)
	for len(setups) < setupReps {
		c.close()
		next, s, err := timedSetUp(w, inputs)
		if err != nil {
			return nil, err
		}
		c = next
		setups = append(setups, s)
	}
	rep.Samples["setup_s"] = len(setups)
	rep.Setups = append([]float64(nil), setups...)
	rep.Samples["images"] = len(win.latMs)
	rep.Extra["window_wall_s"] = win.wall.Seconds()
	p50, p95 := win.latencyMs(0.5), win.latencyMs(0.95)
	rep.Extra["latency_p95_ms"] = p95
	rep.Extra["latency_max_ms"] = win.latencyMs(1)
	rep.Extra["failed_share"] = float64(win.failed+bad) / float64(win.attempted)
	rep.BlockRates = win.blockRates()

	n := float64(win.attempted)
	rep.finish(endToEnd, map[string]float64{
		"images_per_s":         win.imagesPerSec(),
		"latency_p50_ms":       p50,
		"latency_p95_over_p50": p95 / p50,
		"wire_bytes_per_image": float64(win.up+win.down) / n,
		"cpu_s_per_image":      win.cpuPerImage(),
		"allocs_per_image":     float64(win.mallocs) / n,
		"peak_rss_mb":          rss,
		"setup_s":              median(setups),
	}, win.attempted, win.failed+bad)
	return rep, nil
}

// tracedWindowShare is the share of -seconds the traced run gives each
// of its three windows: an untraced reference window on either side of
// the traced one, so that warming up or a drifting host does not read as
// tracing overhead, and all three equally long, so that what a window
// pays once at its start weighs the same in each. The layer replay and
// the trace analysis take the rest.
const tracedWindowShare = 0.27

// Fail-closed tolerances of the traced run.
const (
	maxPhaseGapPct  = 0.1 // Σ phases vs tile latency
	maxBlocksGapPct = 10  // Σ front blocks vs whole front
)

// runTraced is the layer-by-layer run: untraced, traced and untraced
// windows on one cluster, the layer replay, then the trace analysis once
// every loop has ended.
func runTraced(w workload, seed int64, seconds float64, outDir string) (*report, error) {
	rep := newReport(w, seed, seconds, true)
	inputs := makeInputs(w, seed)
	rec := newRecorder(convNodes)
	c, err := startCluster(w, rec)
	if err != nil {
		return nil, err
	}
	defer c.close()
	if err := c.firstImage(inputs); err != nil {
		return nil, err
	}
	if err := c.warmUp(inputs, share(seconds, warmUpShare)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	before := c.measure(inputs, share(seconds, tracedWindowShare), 50, nil)

	var v verifier
	var stats []core.InferStats
	rec.on.Store(true)
	win := c.measure(inputs, share(seconds, tracedWindowShare), 50, func(r *imageResult) {
		v.keep(r)
		if r.failed() {
			return
		}
		rec.images = append(rec.images, imageRec{img: imageID(&r.stats), start: rec.since(r.start), end: rec.since(r.end)})
		stats = append(stats, r.stats)
	})
	rec.on.Store(false)
	after := c.measure(inputs, share(seconds, tracedWindowShare), 50, nil)
	bad := v.check(c, inputs, rep)
	rep.Samples["images_traced"] = len(stats)
	rep.Samples["images_untraced"] = len(before.latMs) + len(after.latMs)
	rep.Samples["replay_reps_min"] = replayReps
	attempted := before.attempted + win.attempted + after.attempted
	failed := before.failed + win.failed + after.failed + bad
	if len(stats) == 0 {
		return nil, fmt.Errorf("traced window completed no image (%d attempted)", win.attempted)
	}

	values, err := replayLayers(c, inputs)
	if err == nil && math.Abs(values["nn.front_blocks_vs_front_pct"]) > maxBlocksGapPct {
		// One retry: a disturbed stretch that covers most of the
		// replay's reps skews even its medians.
		values, err = replayLayers(c, inputs)
	}
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	gap := values["nn.front_blocks_vs_front_pct"]
	rep.check("front_blocks_sum_to_front", math.Abs(gap) <= maxBlocksGapPct, "Σ blocks is %.1f%% off the whole front", gap)

	// The span lists have one writer each; read them only once the
	// session loops on both ends have returned.
	c.close()

	values["core.wire.up_bytes_per_image"] = float64(win.up) / float64(win.attempted)
	values["core.wire.down_bytes_per_image"] = float64(win.down) / float64(win.attempted)
	// Tracing overhead against the mean of the two untraced windows, and
	// how far those two are apart: an overhead smaller than that is not
	// resolved by this run.
	tracedRate, refRate := win.imagesPerSec(), (before.imagesPerSec()+after.imagesPerSec())/2
	untracedP50 := median([]float64{before.latencyMs(0.5), after.latencyMs(0.5)})
	values["trace.overhead_pct"] = 100 * (refRate - tracedRate) / refRate
	values["trace.untraced_windows_differ_pct"] = 100 * math.Abs(before.imagesPerSec()-after.imagesPerSec()) / refRate
	rep.Extra["images_per_s_untraced_before"] = before.imagesPerSec()
	rep.Extra["images_per_s_untraced_after"] = after.imagesPerSec()
	rep.Extra["images_per_s_traced"] = tracedRate
	rep.Extra["latency_p50_ms_traced"] = win.latencyMs(0.5)
	rep.Extra["latency_p50_ms_untraced"] = untracedP50

	phaseMetrics(rep, stats, values)
	connMetrics(rep, rec, win.wall, values)
	criticalTiles := schedMetrics(w, stats, values)

	// The runtime's own time: what is left of an image once the replayed
	// compute on its critical path is taken out.
	spanUs := win.latencyMs(0.5) * 1e3
	computeUs := (criticalTiles*values["models.front_ms_per_tile"] + values["models.back_ms_per_image"]) * 1e3
	values["core.overhead_us_per_image"] = spanUs - computeUs
	rep.Extra["critical_node_tiles"] = criticalTiles
	rep.Extra["replayed_compute_share_of_p50"] = computeUs / spanUs

	// The trace file holds the first few images.
	head := rec.buildSpans(0, min(traceFileImages, len(rec.images)))
	tracePath := filepath.Join(outDir, "trace-"+w.Name+".json")
	if err := rec.writeChromeTrace(tracePath, head, selfTime(head)); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}

	if w.Depth == 1 {
		if err := simPredict(w, values, untracedP50); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	rep.finish(perLayer, values, attempted, failed)
	return rep, nil
}

// phaseMetrics reads the runtime's public per-tile phase breakdown: the
// six phase means, and whether the phases sum to the tile latency.
func phaseMetrics(rep *report, stats []core.InferStats, values map[string]float64) {
	var phase [core.NumPhases]float64
	var phaseSum, tileTotal float64
	tiles := 0
	for i := range stats {
		if stats[i].Breakdown == nil {
			continue
		}
		for _, tb := range stats[i].Breakdown.Tiles {
			for p, d := range tb.Phase {
				phase[p] += float64(d)
			}
			phaseSum += float64(tb.PhaseSum())
			tileTotal += float64(tb.Total)
			tiles++
		}
	}
	rep.Samples["tiles_traced"] = tiles
	rep.check("tiles_have_breakdown", tiles > 0, "no tile returned a timing record")
	if tiles == 0 {
		return
	}
	for p, name := range core.PhaseNames {
		values["core.phase."+name+"_us"] = phase[p] / float64(tiles) / 1e3
	}
	gap := 100 * math.Abs(phaseSum-tileTotal) / tileTotal
	values["core.phase_sum_vs_tile_pct"] = gap
	rep.check("phases_sum_to_tile_latency", gap <= maxPhaseGapPct, "Σ phases is %.3f%% off tile latency", gap)
}

// connMetrics turns what the recording conns on both ends saw during
// the traced window (wall long) into the core runtime metrics.
func connMetrics(rep *report, rec *recorder, wall time.Duration, values map[string]float64) {
	spans := rec.buildSpans(0, len(rec.images))
	self := selfTime(spans)
	rep.Samples["spans"] = len(spans)
	var sendBusy, frames, imageSelf float64
	busy := make([][][2]int64, convNodes)
	for i, s := range spans {
		switch s.name {
		case "image":
			imageSelf += float64(self[i])
		case "central.send":
			sendBusy += float64(s.end - s.start)
			frames++
		case "central.recv":
			frames++
		case "node.busy":
			busy[s.node] = append(busy[s.node], [2]int64{s.start, s.end})
		}
	}
	// Time the Central's recv loops sat in Recv: the raw calls, not the
	// spans (a central.recv span starts when the node began writing).
	traced := make(map[uint32]bool, len(rec.images))
	for _, im := range rec.images {
		traced[im.img] = true
	}
	var recvWait float64
	for _, conn := range rec.central {
		for _, f := range conn.recvs {
			if traced[f.img] {
				recvWait += float64(f.end - f.start)
			}
		}
	}
	var busyShare, maxTiles, sumTiles float64
	for _, iv := range busy {
		busyShare += float64(coveredWithin(iv, 0, math.MaxInt64)) / float64(wall)
		maxTiles = math.Max(maxTiles, float64(len(iv)))
		sumTiles += float64(len(iv))
	}
	n := float64(len(rec.images))
	values["core.central.send_busy_us_per_image"] = sendBusy / n / 1e3
	values["core.central.recv_wait_us_per_image"] = recvWait / convNodes / n / 1e3
	values["core.wire.frames_per_image"] = frames / n
	values["core.image_self_us_per_image"] = imageSelf / n / 1e3
	values["core.node.busy_share"] = busyShare / convNodes
	if sumTiles > 0 {
		values["core.node.tiles_max_over_mean"] = maxTiles / (sumTiles / convNodes)
	}
}

// schedMetrics reads what the allocator did from InferStats.Alloc and
// returns the mean tile count of the most loaded node — the node whose
// tiles are on an image's blocking path.
func schedMetrics(w workload, stats []core.InferStats, values map[string]float64) (criticalTiles float64) {
	reallocs := 0
	for i := range stats {
		most := 0
		for _, x := range stats[i].Alloc {
			most = max(most, x)
		}
		criticalTiles += float64(most)
		if i > 0 && !slices.Equal(stats[i].Alloc, stats[i-1].Alloc) {
			reallocs++
		}
	}
	n := float64(len(stats))
	criticalTiles /= n
	values["sched.alloc_imbalance"] = criticalTiles / (float64(w.Grid.Tiles()) / convNodes)
	values["sched.reallocs_per_100_images"] = 100 * float64(reallocs) / n
	return criticalTiles
}

// imageID recovers the runtime's image ID of a finished image: the
// breakdown names it; failing that, the low bits of the trace ID do.
func imageID(st *core.InferStats) uint32 {
	if st.Breakdown != nil {
		return st.Breakdown.Image
	}
	return uint32(st.TraceID & (1<<20 - 1))
}

// simPredict feeds core.Sim device and link models calibrated from this
// run — FLOP rates that reproduce the replayed front and back times,
// the shaped link rate (or, unshaped, the rate the phase breakdown saw)
// — and records how far its latency is from the live median. No bound:
// it says how much the simulator's figures are worth, nothing else.
func simPredict(w workload, values map[string]float64, liveP50Ms float64) error {
	cfg := w.Model()
	tiles := int64(w.Grid.Tiles())
	device := func(name string, flops int64, ms float64) perfmodel.DeviceModel {
		return perfmodel.DeviceModel{Name: name, FLOPS: float64(flops) / (ms / 1e3)}
	}
	nodeModel := device("replayed-front", cfg.FrontFLOPs()/tiles, values["models.front_ms_per_tile"])
	var nodes []*clusterpkg.Device
	for k := 0; k < convNodes; k++ {
		nodes = append(nodes, clusterpkg.NewDevice(k+1, nodeModel))
	}
	mbps := w.LinkMbps
	if mbps == 0 {
		wireUs := values["core.phase.uplink_us"] + values["core.phase.downlink_us"]
		bytesPerTile := (values["core.wire.up_bytes_per_image"] + values["core.wire.down_bytes_per_image"]) / float64(tiles)
		mbps = bytesPerTile * 8 / wireUs
	}
	sc := core.SimConfig{
		Model: cfg, Grid: w.Grid, Nodes: nodes,
		Central:            clusterpkg.NewDevice(0, device("replayed-back", cfg.BackFLOPs(), values["models.back_ms_per_image"])),
		Link:               perfmodel.LinkModel{Name: "bench", BandwidthMbps: mbps},
		InputBytesPerValue: 4,
		Gamma:              0.9,
		Pipeline:           true,
	}
	switch {
	case w.codec():
		sc.Pruning, sc.PruneRatio = true, values["compress.ratio"]
	case w.Int8:
		sc.InputBytesPerValue = 1
		sc.Pruning, sc.PruneRatio = true, 0.25 // levels downlink: one byte per float32
	}
	sim, err := core.NewSim(sc)
	if err != nil {
		return err
	}
	var lat []float64
	for _, r := range sim.RunImages(20, nil) {
		lat = append(lat, float64(r.Latency)/1e6)
	}
	values["sim.predicted_latency_ms"] = median(lat)
	values["sim.latency_error_pct"] = 100 * (median(lat) - liveP50Ms) / liveP50Ms
	return nil
}
