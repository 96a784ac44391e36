package core

import (
	"strconv"
	"time"

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
	Images          *telemetry.Counter
	ImageLatency    *telemetry.Histogram            // seconds, full Infer round trip
	TileRoundTrip   *telemetry.Histogram            // seconds, tile dispatch → result arrival
	TilesDispatched *telemetry.CounterVec           // node
	TilesReceived   *telemetry.CounterVec           // node, within the drop deadline
	TilesMissed     *telemetry.Counter              // zero-filled at T_L
	ConnDrops       *telemetry.CounterVec           // node, transport failures → session down
	InflightImages  *telemetry.Gauge                // images dispatched, Wait not finished
	SendQueueDepth  *telemetry.GaugeVec             // node, tasks queued in the session send loop
	Reconnects      *telemetry.CounterVec           // node, successful session reconnects
	Revives         *telemetry.CounterVec           // node, probation revivals of starved-but-alive nodes
	StaleResults    *telemetry.Counter              // results for already-settled tiles
	PipelineDepth   *telemetry.Gauge                // admission slots held in a Pipeline
	TilePhase       [NumPhases]*telemetry.Histogram // seconds, per-tile latency decomposition by phase
	ClockOffset     *telemetry.GaugeVec             // node, estimated Conv-clock offset (seconds to add to map onto Central's clock)
	NodeHealth      *telemetry.GaugeVec             // node, gray-failure anomaly score (0 = at baseline)
	LinkRTT         *telemetry.GaugeVec             // node, probe-refreshed round-trip time (hold time subtracted)
	LinkUp          *telemetry.GaugeVec             // node, EWMA uplink bytes/sec (0 = unknown/stale)
	LinkDown        *telemetry.GaugeVec             // node, EWMA downlink bytes/sec (0 = unknown/stale)
	LinkProbes      *telemetry.CounterVec           // node, link probe echoes received
	Sched           *sched.Monitor

	// Sliding-window views of the live path, feeding the SLO engine and
	// the ops console: the cumulative instruments answer "ever", these
	// answer "the last few seconds".
	TileLatencyWindow *telemetry.WindowedHistogram // seconds, tile round trip
	TilesOKWindow     *telemetry.WindowedCounter   // tiles received in time
	TilesMissWindow   *telemetry.WindowedCounter   // tiles zero-filled at T_L

	// Worker side.
	WorkerTasks      *telemetry.CounterVec // node
	WorkerProcess    *telemetry.Histogram  // seconds, Front+Boundary+encode per tile
	WorkerRecvEOF    *telemetry.Counter    // clean peer disconnects
	WorkerRecvErrors *telemetry.Counter    // mid-stream receive failures
	WorkerSendErrors *telemetry.Counter    // result send failures

	// Transport.
	Wire *WireMetrics
}

// windowSpan/windowSlots size the sliding-window instruments: 60s of
// history at 250ms granularity, enough to serve any burn window the SLO
// engine is configured with (up to the span) from one ring.
const (
	windowSpan  = 60 * time.Second
	windowSlots = 240
)

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
		Registry:        reg,
		replica:         replica,
		Images:          counter("adcnn_central_images_total", "Distributed inferences started."),
		ImageLatency:    hist("adcnn_central_image_latency_seconds", "End-to-end latency of one distributed inference."),
		TileRoundTrip:   hist("adcnn_central_tile_roundtrip_seconds", "Tile dispatch to intermediate-result arrival."),
		TilesDispatched: counterVec("adcnn_central_tiles_dispatched_total", "Tiles sent to each Conv node.", "node"),
		TilesReceived:   counterVec("adcnn_central_tiles_received_total", "Tile results received within the drop deadline.", "node"),
		TilesMissed:     counter("adcnn_central_tiles_missed_total", "Tiles zero-filled at the deadline T_L."),
		ConnDrops:       counterVec("adcnn_central_conn_drops_total", "Conv-node connections marked dead after a transport failure.", "node"),
		InflightImages:  gauge("adcnn_central_inflight_images", "Images dispatched whose results are still being collected."),
		SendQueueDepth:  gaugeVec("adcnn_central_send_queue_depth", "Tile tasks queued in each node session's send loop.", "node"),
		Reconnects:      counterVec("adcnn_central_reconnects_total", "Successful Conv-node session reconnects.", "node"),
		Revives:         counterVec("adcnn_central_probation_revives_total", "Starved-but-alive Conv nodes re-admitted to the allocation on probation.", "node"),
		StaleResults:    counter("adcnn_central_stale_results_total", "Results that arrived after their tile was already settled (duplicate or past T_L)."),
		PipelineDepth:   gauge("adcnn_pipeline_inflight", "Admission slots currently held in a streaming Pipeline."),
		ClockOffset:     gaugeVec("adcnn_central_clock_offset_seconds", "Estimated Conv-node clock offset (added to Conv timestamps to map onto Central's clock).", "node"),
		NodeHealth:      gaugeVec("adcnn_central_node_health", "Gray-failure anomaly score per Conv node: worst relative deviation of the fast phase-time EWMA over the node's slow baseline (0 = at baseline).", "node"),
		LinkRTT:         gaugeVec("adcnn_central_link_rtt_seconds", "Per-node link round-trip time from probe exchanges (remote hold time subtracted).", "node"),
		LinkUp:          gaugeVec("adcnn_central_link_up_bytes_per_second", "EWMA uplink transfer rate to each Conv node, estimated from tile phase timings (0 = unknown or stale).", "node"),
		LinkDown:        gaugeVec("adcnn_central_link_down_bytes_per_second", "EWMA downlink transfer rate from each Conv node, estimated from tile phase timings (0 = unknown or stale).", "node"),
		LinkProbes:      counterVec("adcnn_central_link_probes_total", "Link probe echoes received per Conv node.", "node"),
		Sched:           sched.NewMonitor(reg, replica),

		TileLatencyWindow: telemetry.NewWindowedHistogram(windowSpan, windowSlots, nil),
		TilesOKWindow:     telemetry.NewWindowedCounter(windowSpan, windowSlots),
		TilesMissWindow:   telemetry.NewWindowedCounter(windowSpan, windowSlots),
		WorkerTasks:       counterVec("adcnn_worker_tasks_total", "Tile tasks processed by this worker.", "node"),
		WorkerProcess:     hist("adcnn_worker_process_seconds", "Per-tile Front+Boundary compute and encode time."),
		WorkerRecvEOF:     counter("adcnn_worker_recv_eof_total", "Clean peer disconnects observed by workers."),
		WorkerRecvErrors:  counter("adcnn_worker_recv_errors_total", "Mid-stream receive failures observed by workers."),
		WorkerSendErrors:  counter("adcnn_worker_send_errors_total", "Result send failures observed by workers."),
		Wire:              newWireMetrics(reg, replica),
	}
	phases := histVec("adcnn_central_tile_phase_seconds",
		"Per-tile latency decomposition: time spent in each phase of the tile's journey.", "phase")
	for p := 0; p < NumPhases; p++ {
		m.TilePhase[p] = phases.With(PhaseNames[p])
	}
	return m
}

// kindLabel names a message kind for the wire metric labels.
func kindLabel(k MsgKind) int {
	if k >= KindTask && k <= KindProbe {
		return int(k)
	}
	return 0
}

var kindNames = [5]string{"other", "task", "result", "shutdown", "probe"}

// WireMetrics counts transport traffic per message kind and direction:
//
//	adcnn_wire_frames_total{kind,dir}       frames sent/received
//	adcnn_wire_bytes_total{kind,dir}        frame bytes (payload + header)
//	adcnn_wire_compressed_frames_total{dir} frames carrying compressed payloads
//	adcnn_wire_compressed_bytes_total{dir}  their payload bytes
//
// The counters are resolved per kind up front so metering a message is
// two atomic adds.
type WireMetrics struct {
	frames, bytes         [2][5]*telemetry.Counter // [dir][kind]
	compFrames, compBytes [2]*telemetry.Counter    // [dir]
}

const (
	dirSent = 0
	dirRecv = 1
)

var dirNames = [2]string{"sent", "recv"}

func newWireMetrics(reg *telemetry.Registry, replica string) *WireMetrics {
	vec := func(name, help string, labels ...string) *telemetry.CounterVec {
		if replica == "" {
			return reg.CounterVec(name, help, labels...)
		}
		return reg.CounterVec(name, help, append([]string{"replica"}, labels...)...).Curry(replica)
	}
	wm := &WireMetrics{}
	frames := vec("adcnn_wire_frames_total", "Protocol frames by message kind and direction.", "kind", "dir")
	bytes := vec("adcnn_wire_bytes_total", "Protocol frame bytes (payload plus header) by message kind and direction.", "kind", "dir")
	compFrames := vec("adcnn_wire_compressed_frames_total", "Frames carrying compress-pipeline payloads.", "dir")
	compBytes := vec("adcnn_wire_compressed_bytes_total", "Payload bytes of compressed frames.", "dir")
	for d := 0; d < 2; d++ {
		for k := 0; k < len(kindNames); k++ {
			wm.frames[d][k] = frames.With(kindNames[k], dirNames[d])
			wm.bytes[d][k] = bytes.With(kindNames[k], dirNames[d])
		}
		wm.compFrames[d] = compFrames.With(dirNames[d])
		wm.compBytes[d] = compBytes.With(dirNames[d])
	}
	return wm
}

// frameOverhead is the wire framing cost per message (magic + version +
// 4-byte length prefix + 30-byte header), kept in sync with
// WriteMessage. Result frames carrying a ConvTiming record cost
// timingSize more.
const frameOverhead = 6 + bodyHeader

func (wm *WireMetrics) record(dir int, m *Message) {
	k := kindLabel(m.Kind)
	n := len(m.Payload) + frameOverhead
	if m.Timing != nil {
		n += timingSize
	}
	wm.frames[dir][k].Inc()
	wm.bytes[dir][k].Add(float64(n))
	if m.Compressed {
		wm.compFrames[dir].Inc()
		wm.compBytes[dir].Add(float64(len(m.Payload)))
	}
}

// meteredConn wraps a Conn and counts traffic on both directions.
type meteredConn struct {
	Conn
	wm *WireMetrics
}

// InstrumentConn wraps conn so every frame is counted in wm. A nil wm
// returns conn unchanged.
func InstrumentConn(conn Conn, wm *WireMetrics) Conn {
	if wm == nil {
		return conn
	}
	return &meteredConn{Conn: conn, wm: wm}
}

func (c *meteredConn) Send(m *Message) error {
	err := c.Conn.Send(m)
	if err == nil {
		c.wm.record(dirSent, m)
	}
	return err
}

func (c *meteredConn) Recv() (*Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.wm.record(dirRecv, m)
	}
	return m, err
}

// node returns the label value for a node index.
func nodeLabel(k int) string { return strconv.Itoa(k) }
