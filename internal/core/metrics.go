package core

import (
	"strconv"

	"adcnn/internal/sched"
	"adcnn/internal/telemetry"
)

// Metrics bundles a Central replica's instruments, resolved once from a
// telemetry.Registry so the per-tile hot path never touches a map. A nil
// *Metrics disables instrumentation at every call site. Every family
// carries a leading "replica" label bound to the bundle's replica, so
// one schema serves a lone Central (replica "0") and several replicas
// sharing one registry, each with its own bundle.
type Metrics struct {
	Registry *telemetry.Registry
	replica  string // the replica label value every family carries

	Images         *telemetry.Counter
	TileRoundTrip  *telemetry.Histogram            // seconds, tile dispatch → result arrival
	TilesMissed    *telemetry.Counter              // zero-filled at T_L
	InflightImages *telemetry.Gauge                // images dispatched, Wait not finished
	SendQueueDepth *telemetry.GaugeVec             // node, tasks queued in the session send loop
	TilePhase      [NumPhases]*telemetry.Histogram // seconds, per-tile latency decomposition by phase
	NodeHealth     *telemetry.GaugeVec             // node, gray-failure anomaly score (0 = at baseline)
	LinkRTT        *telemetry.GaugeVec             // node, smoothed tile-exchange round-trip time (hold time subtracted)
	LinkUp         *telemetry.GaugeVec             // node, EWMA uplink bytes/sec (0 = unknown/stale)
	LinkDown       *telemetry.GaugeVec             // node, EWMA downlink bytes/sec (0 = unknown/stale)
	SchedSpeed     *telemetry.GaugeVec             // node, Algorithm 2 estimate s_k after each image settles

	// Audit, when set, receives the scheduler's decisions (see
	// sched.Driver.Plan); replicas may share one ring.
	Audit *sched.Audit
}

// NewMetrics registers replica's bundle of the Central catalog on reg
// (see DESIGN.md "Observability" for the name catalog). Bundles of
// different replicas share the families and differ in the replica
// value they are curried to.
func NewMetrics(reg *telemetry.Registry, replica int) *Metrics {
	r := strconv.Itoa(replica)
	m := &Metrics{
		Registry:       reg,
		replica:        r,
		Images:         reg.CounterVec("adcnn_central_images_total", "Distributed inferences started.", "replica").With(r),
		TileRoundTrip:  reg.HistogramVec("adcnn_central_tile_roundtrip_seconds", "Tile dispatch to intermediate-result arrival.", nil, "replica").With(r),
		TilesMissed:    reg.CounterVec("adcnn_central_tiles_missed_total", "Tiles zero-filled at the deadline T_L.", "replica").With(r),
		InflightImages: reg.GaugeVec("adcnn_central_inflight_images", "Images dispatched whose results are still being collected.", "replica").With(r),
		SendQueueDepth: reg.GaugeVec("adcnn_central_send_queue_depth", "Tile tasks queued in each node session's send loop.", "replica", "node").Curry(r),
		NodeHealth:     reg.GaugeVec("adcnn_central_node_health", "Gray-failure anomaly score per Conv node: worst relative deviation of the fast phase-time EWMA over the node's slow baseline (0 = at baseline).", "replica", "node").Curry(r),
		LinkRTT:        reg.GaugeVec("adcnn_central_link_rtt_seconds", "Per-node link round-trip time from task-to-result exchanges (remote hold time subtracted).", "replica", "node").Curry(r),
		LinkUp:         reg.GaugeVec("adcnn_central_link_up_bytes_per_second", "EWMA uplink transfer rate to each Conv node, estimated from tile phase timings (0 = unknown or stale).", "replica", "node").Curry(r),
		LinkDown:       reg.GaugeVec("adcnn_central_link_down_bytes_per_second", "EWMA downlink transfer rate from each Conv node, estimated from tile phase timings (0 = unknown or stale).", "replica", "node").Curry(r),
		SchedSpeed:     reg.GaugeVec("adcnn_sched_speed", "Algorithm 2 EWMA throughput estimate s_k per Conv node.", "replica", "node").Curry(r),
	}
	phases := reg.HistogramVec("adcnn_central_tile_phase_seconds",
		"Per-tile latency decomposition: time spent in each phase of the tile's journey.", nil, "replica", "phase").Curry(r)
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
