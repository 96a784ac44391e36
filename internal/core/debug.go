package core

// SessionDebug is one node session's state snapshot, served as JSON at
// /debug/sessions on adcnn-central's metrics mux.
type SessionDebug struct {
	Node  int  `json:"node"`
	Alive bool `json:"alive"`
	// Epochs counts connection epochs started (1 = the original
	// connection; each reconnect adds one).
	Epochs     int `json:"epochs"`
	QueueDepth int `json:"queue_depth"`
	// PendingTiles counts outstanding tiles last enqueued on this
	// session (dispatched, result not yet settled).
	PendingTiles int `json:"pending_tiles"`
	// BackoffMs is the current reconnect backoff; 0 while connected.
	BackoffMs float64 `json:"reconnect_backoff_ms"`
	// ClockOffsetNs maps this Conv node's monotonic timestamps onto the
	// Central's clock (added to Conv readings); RTTNs is the smoothed
	// round trip the estimate is based on.
	ClockOffsetNs int64 `json:"clock_offset_ns"`
	RTTNs         int64 `json:"rtt_ns"`
	OffsetSamples int64 `json:"offset_samples"`
	// UplinkBps/DownlinkBps are the passive link-rate estimates in
	// bytes/sec (0 = unknown, unconverged, or stale); LinkSamples counts
	// the transfer samples behind them.
	UplinkBps   float64 `json:"uplink_bytes_per_sec"`
	DownlinkBps float64 `json:"downlink_bytes_per_sec"`
	LinkSamples int     `json:"link_samples"`
}

// DebugSessions snapshots every node session's state.
func (c *Central) DebugSessions() []SessionDebug {
	out := make([]SessionDebug, 0, len(c.sessions))
	perNode := c.pending.perNode()
	for _, s := range c.sessions {
		info := s.debugInfo()
		info.PendingTiles = perNode[s.id]
		out = append(out, info)
	}
	return out
}
