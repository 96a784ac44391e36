package core

import (
	"strconv"

	"adcnn/internal/sched"
	"adcnn/internal/telemetry"
)

// Metrics bundles the live runtime's instruments, resolved once from a
// telemetry.Registry so the per-tile hot path never touches a map. A nil
// *Metrics disables instrumentation at every call site; the same bundle
// can be shared by a Central and its Workers (in-process runs) or built
// per binary (TCP runs).
type Metrics struct {
	Registry *telemetry.Registry
	replica  string // the replica label every family carries; "" = unlabeled schema

	// Central side.
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
	Sched          *sched.Monitor

	// Worker side.
	WorkerTasks   *telemetry.CounterVec // node
	WorkerProcess *telemetry.Histogram  // seconds, Front+Boundary+encode per tile
}

// NewMetrics registers the runtime metric catalog on reg (see DESIGN.md
// "Observability" for the name catalog).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return newMetrics(reg, "")
}

// NewReplicaMetrics registers the same catalog with a leading "replica"
// label on every family, for processes hosting several Central replicas
// on one registry: each replica gets its own bundle (same family
// objects, curried to its replica value), so per-replica throughput,
// queue depth and node shares are separable in one scrape. A registry
// must use either the labeled or the unlabeled schema, never both.
func NewReplicaMetrics(reg *telemetry.Registry, replica string) *Metrics {
	return newMetrics(reg, replica)
}

func newMetrics(reg *telemetry.Registry, replica string) *Metrics {
	// The catalog is written once against the builders; replica == ""
	// yields exactly the historical schema, anything else prefixes every
	// family with the replica label and pre-binds it.
	counter := func(name, help string) *telemetry.Counter {
		if replica == "" {
			return reg.Counter(name, help)
		}
		return reg.CounterVec(name, help, "replica").With(replica)
	}
	gauge := func(name, help string) *telemetry.Gauge {
		if replica == "" {
			return reg.Gauge(name, help)
		}
		return reg.GaugeVec(name, help, "replica").With(replica)
	}
	hist := func(name, help string) *telemetry.Histogram {
		if replica == "" {
			return reg.Histogram(name, help, nil)
		}
		return reg.HistogramVec(name, help, nil, "replica").With(replica)
	}
	counterVec := func(name, help string, labels ...string) *telemetry.CounterVec {
		if replica == "" {
			return reg.CounterVec(name, help, labels...)
		}
		return reg.CounterVec(name, help, append([]string{"replica"}, labels...)...).Curry(replica)
	}
	gaugeVec := func(name, help string, labels ...string) *telemetry.GaugeVec {
		if replica == "" {
			return reg.GaugeVec(name, help, labels...)
		}
		return reg.GaugeVec(name, help, append([]string{"replica"}, labels...)...).Curry(replica)
	}
	histVec := func(name, help string, labels ...string) *telemetry.HistogramVec {
		if replica == "" {
			return reg.HistogramVec(name, help, nil, labels...)
		}
		return reg.HistogramVec(name, help, nil, append([]string{"replica"}, labels...)...).Curry(replica)
	}
	m := &Metrics{
		Registry:       reg,
		replica:        replica,
		Images:         counter("adcnn_central_images_total", "Distributed inferences started."),
		TileRoundTrip:  hist("adcnn_central_tile_roundtrip_seconds", "Tile dispatch to intermediate-result arrival."),
		TilesMissed:    counter("adcnn_central_tiles_missed_total", "Tiles zero-filled at the deadline T_L."),
		InflightImages: gauge("adcnn_central_inflight_images", "Images dispatched whose results are still being collected."),
		SendQueueDepth: gaugeVec("adcnn_central_send_queue_depth", "Tile tasks queued in each node session's send loop.", "node"),
		NodeHealth:     gaugeVec("adcnn_central_node_health", "Gray-failure anomaly score per Conv node: worst relative deviation of the fast phase-time EWMA over the node's slow baseline (0 = at baseline).", "node"),
		LinkRTT:        gaugeVec("adcnn_central_link_rtt_seconds", "Per-node link round-trip time from task-to-result exchanges (remote hold time subtracted).", "node"),
		LinkUp:         gaugeVec("adcnn_central_link_up_bytes_per_second", "EWMA uplink transfer rate to each Conv node, estimated from tile phase timings (0 = unknown or stale).", "node"),
		LinkDown:       gaugeVec("adcnn_central_link_down_bytes_per_second", "EWMA downlink transfer rate from each Conv node, estimated from tile phase timings (0 = unknown or stale).", "node"),
		Sched:          sched.NewMonitor(reg, replica),

		WorkerTasks:   counterVec("adcnn_worker_tasks_total", "Tile tasks processed by this worker.", "node"),
		WorkerProcess: hist("adcnn_worker_process_seconds", "Per-tile Front+Boundary compute and encode time."),
	}
	phases := histVec("adcnn_central_tile_phase_seconds",
		"Per-tile latency decomposition: time spent in each phase of the tile's journey.", "phase")
	for p := 0; p < NumPhases; p++ {
		m.TilePhase[p] = phases.With(PhaseNames[p])
	}
	return m
}

// node returns the label value for a node index.
func nodeLabel(k int) string { return strconv.Itoa(k) }
