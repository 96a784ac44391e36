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
// network time of the exchange. Samples are folded into an EWMA whose
// effective weight shrinks for high-RTT exchanges (their midpoint is
// less trustworthy), scaled by the minimum RTT seen so far — a cheap
// stand-in for the "pick the lowest-RTT sample" filter of full NTP.
//
// Offset() returns the value to ADD to remote timestamps to express
// them on the local clock. All methods are safe for concurrent use and
// no-ops on a nil receiver.
type OffsetEstimator struct {
	mu      sync.Mutex
	alpha   float64
	offset  float64 // EWMA of −θ: add to remote timestamps
	rtt     float64 // EWMA of sample RTT (ns)
	minRTT  int64
	samples int64
}

// DefaultOffsetAlpha is the EWMA weight for minimum-RTT samples.
const DefaultOffsetAlpha = 0.2

// NewOffsetEstimator creates an estimator with EWMA weight alpha in
// (0,1]; alpha ≤ 0 uses DefaultOffsetAlpha.
func NewOffsetEstimator(alpha float64) *OffsetEstimator {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultOffsetAlpha
	}
	return &OffsetEstimator{alpha: alpha}
}

// Update folds one exchange into the estimate and returns the updated
// offset and this sample's RTT (both ns). Samples with negative RTT
// (clock torn mid-exchange) are dropped.
func (e *OffsetEstimator) Update(t0, t1, t2, t3 int64) (offsetNs, rttNs int64) {
	if e == nil {
		return 0, 0
	}
	rtt := (t3 - t0) - (t2 - t1)
	if rtt < 0 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return int64(e.offset), rtt
	}
	// θ = remote ahead of local; we store −θ so Offset() is additive.
	theta := (float64(t1-t0) + float64(t2-t3)) / 2
	sample := -theta
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.samples == 0 || rtt < e.minRTT {
		e.minRTT = rtt
	}
	w := e.alpha
	if rtt > e.minRTT {
		// Derate by how much slower than the best exchange this one was.
		w *= float64(e.minRTT+1) / float64(rtt+1)
	}
	if e.samples == 0 {
		e.offset = sample
		e.rtt = float64(rtt)
	} else {
		e.offset += w * (sample - e.offset)
		e.rtt += e.alpha * (float64(rtt) - e.rtt)
	}
	e.samples++
	return int64(e.offset), rtt
}

// Offset returns the current estimate: add to remote timestamps to map
// them onto the local clock.
func (e *OffsetEstimator) Offset() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return int64(e.offset)
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

// Samples returns how many exchanges have been folded in.
func (e *OffsetEstimator) Samples() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.samples
}
