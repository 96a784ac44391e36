package core

import (
	"strconv"

	"adcnn/internal/telemetry"
)

// Metrics bundles the Central's instruments, resolved once from a
// telemetry.Registry so the per-tile hot path never touches a map. A nil
// *Metrics disables instrumentation at every call site.
type Metrics struct {
	Registry *telemetry.Registry

	Images         *telemetry.Counter
	TileRoundTrip  *telemetry.Histogram            // seconds, tile enqueue → collected (the Breakdown's Total)
	TilesMissed    *telemetry.Counter              // zero-filled at T_L
	InflightImages *telemetry.Gauge                // images dispatched, Wait not finished
	SendQueueDepth *telemetry.GaugeVec             // node, tasks queued in the session send loop
	TilePhase      [NumPhases]*telemetry.Histogram // seconds, per-tile latency decomposition by phase
	CriticalPath   *telemetry.CounterVec           // node, phase: images whose last tile ran on node, by the phase most above its peers' median
	LinkRTT        *telemetry.GaugeVec             // node, smoothed tile-exchange round-trip time (hold time subtracted)
	SchedSpeed     *telemetry.GaugeVec             // node, Algorithm 2 estimate s_k after each image settles
}

// NewMetrics registers the Central catalog on reg (see DESIGN.md
// "Observability" for the name catalog).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{
		Registry:       reg,
		Images:         reg.Counter("adcnn_central_images_total", "Distributed inferences started."),
		TileRoundTrip:  reg.Histogram("adcnn_central_tile_roundtrip_seconds", "Tile enqueue on the Central to its result collected: the sum of the six tile phases.", nil),
		TilesMissed:    reg.Counter("adcnn_central_tiles_missed_total", "Tiles zero-filled at the deadline T_L."),
		InflightImages: reg.Gauge("adcnn_central_inflight_images", "Images dispatched whose results are still being collected."),
		SendQueueDepth: reg.GaugeVec("adcnn_central_send_queue_depth", "Tile tasks queued in each node session's send loop.", "node"),
		CriticalPath:   reg.CounterVec("adcnn_central_critical_path_total", "Images whose last tile to settle ran on each Conv node, by the phase in which that tile most exceeded the median of the same phase over the other nodes' tiles; images with no excess are not counted.", "node", "phase"),
		LinkRTT:        reg.GaugeVec("adcnn_central_link_rtt_seconds", "Per-node link round-trip time from task-to-result exchanges (remote hold time subtracted).", "node"),
		SchedSpeed:     reg.GaugeVec("adcnn_sched_speed", "Algorithm 2 EWMA throughput estimate s_k per Conv node.", "node"),
	}
	phases := reg.HistogramVec("adcnn_central_tile_phase_seconds",
		"Per-tile latency decomposition: time spent in each phase of the tile's journey.", nil, "phase")
	for p := 0; p < NumPhases; p++ {
		m.TilePhase[p] = phases.With(PhaseNames[p])
	}
	return m
}

// WorkerMetrics are a Conv node's instruments.
type WorkerMetrics struct {
	Tasks   *telemetry.CounterVec // node
	Process *telemetry.Histogram  // seconds, Front+Boundary+encode per tile
}

// NewWorkerMetrics registers the Conv node catalog on reg.
func NewWorkerMetrics(reg *telemetry.Registry) *WorkerMetrics {
	return &WorkerMetrics{
		Tasks:   reg.CounterVec("adcnn_worker_tasks_total", "Tile tasks processed by this worker.", "node"),
		Process: reg.Histogram("adcnn_worker_process_seconds", "Per-tile Front+Boundary compute and encode time.", nil),
	}
}

// node returns the label value for a node index.
func nodeLabel(k int) string { return strconv.Itoa(k) }
