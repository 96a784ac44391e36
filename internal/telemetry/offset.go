package telemetry

import "sync"

// OffsetEstimator maps a remote peer's monotonic clock onto the local
// one from request/response timestamp quadruples, NTP-style. For each
// exchange the caller supplies
//
//	t0  local clock, request sent
//	t1  remote clock, request received
//	t2  remote clock, response sent
//	t3  local clock, response received
//
// The midpoint offset sample θ = ((t1−t0)+(t2−t3))/2 estimates how far
// the remote clock is ahead of the local one, with error bounded by
// half the round-trip asymmetry; RTT = (t3−t0)−(t2−t1) is the pure
// network time of the exchange. The estimate is NTP's clock filter
// (RFC 5905 §10): of the last eight exchanges, the offset of the one
// with the lowest RTT — the one with the least room for asymmetric
// queueing — and the newest of equals. A slow or lopsided exchange
// moves the estimate only once it is the best in the window.
//
// One gate guards the filter against a congested stretch longer than
// its window: when even the best of the eight took more than
// offsetDelayGate times the lowest RTT of the last offsetFloorLen
// exchanges, every one of them queued, their midpoints are as biased as
// the queueing is lopsided, and the estimate holds. A clock step arrives
// at the usual RTT and passes the gate; a lasting path change passes it
// once the floor has aged out.
//
// Offset() returns the value to ADD to remote timestamps to express
// them on the local clock. All methods are safe for concurrent use and
// no-ops on a nil receiver.
type OffsetEstimator struct {
	mu      sync.Mutex
	window  [offsetFloorLen]offsetSample // ring; exchange i at i mod len
	offset  int64                        // the estimate
	rtt     float64                      // EWMA of sample RTT (ns), weight 0.2
	samples int64
}

// offsetSample is one exchange in the filter: −θ (add to remote
// timestamps) and its RTT, both ns.
type offsetSample struct{ offset, rtt int64 }

const (
	// offsetFilterLen is how many of the latest exchanges the clock
	// filter chooses from (RFC 5905's eight).
	offsetFilterLen = 8
	// offsetFloorLen exchanges set the RTT floor the gate compares with.
	offsetFloorLen = 64
	// offsetDelayGate is how many times the floor the filter's pick may
	// take and still move the estimate.
	offsetDelayGate = 4
)

// NewOffsetEstimator creates an estimator with no exchanges filed.
func NewOffsetEstimator() *OffsetEstimator { return new(OffsetEstimator) }

// Update files one exchange into the filter and returns the updated
// offset and this sample's RTT (both ns). Samples with negative RTT
// (clock torn mid-exchange) are dropped.
func (e *OffsetEstimator) Update(t0, t1, t2, t3 int64) (offsetNs, rttNs int64) {
	if e == nil {
		return 0, 0
	}
	rtt := (t3 - t0) - (t2 - t1)
	e.mu.Lock()
	defer e.mu.Unlock()
	if rtt < 0 {
		return e.offset, rtt
	}
	// θ = remote ahead of local; we store −θ so Offset() is additive.
	theta := (float64(t1-t0) + float64(t2-t3)) / 2
	e.window[e.samples%offsetFloorLen] = offsetSample{offset: int64(-theta), rtt: rtt}
	if e.samples == 0 {
		e.rtt = float64(rtt)
	} else {
		e.rtt += 0.2 * (float64(rtt) - e.rtt)
	}
	e.samples++
	if b, floor := e.lowest(offsetFilterLen), e.lowest(offsetFloorLen); b.rtt <= offsetDelayGate*floor.rtt {
		e.offset = b.offset
	}
	return e.offset, rtt
}

// lowest is the lowest-RTT exchange among the last n, the newest of
// equals. e.mu is held and there is at least one exchange.
func (e *OffsetEstimator) lowest(n int64) offsetSample {
	var b offsetSample
	for i := int64(0); i < min(e.samples, n); i++ { // newest first
		s := e.window[(e.samples-1-i)%offsetFloorLen]
		if i == 0 || s.rtt < b.rtt {
			b = s
		}
	}
	return b
}

// Offset returns the current estimate: add to remote timestamps to map
// them onto the local clock.
func (e *OffsetEstimator) Offset() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.offset
}

// RTT returns the smoothed round-trip time in nanoseconds.
func (e *OffsetEstimator) RTT() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return int64(e.rtt)
}

// Samples returns how many exchanges have been filed.
func (e *OffsetEstimator) Samples() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.samples
}
