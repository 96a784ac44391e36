package core

import (
	"sync"
	"time"

	"adcnn/internal/telemetry"
)

// Link-estimator tuning. The transfer-rate EWMAs live in the
// seconds-per-byte domain, not bytes-per-second: a bandwidth collapse
// multiplies seconds-per-byte, and an EWMA converges toward a large
// new value in a couple of samples where the reciprocal bytes-per-second
// EWMA would crawl down from a huge healthy baseline for dozens. The
// alphas are asymmetric: react to a slowdown fast (attack), forgive
// recoveries a little more slowly (decay) so one lucky transfer does not
// erase a collapse.
const (
	linkAttackAlpha = 0.5                  // sample says the link got slower
	linkDecayAlpha  = 0.2                  // sample says the link got faster
	linkStale       = 3 * time.Second      // no sample this long → reported as 0
	linkMinSamples  = 3                    // samples before a rate is reported
	linkMinDur      = 2 * time.Microsecond // duration floor, avoids loopback ∞ bps
)

// linkState is one session's view of the network path to its Conv node:
// EWMA'd uplink/downlink transfer rates estimated passively from tile
// phase timings (the RTT lives in the session's OffsetEstimator).
type linkState struct {
	mu      sync.Mutex
	upSpb   float64 // uplink seconds-per-byte EWMA (0 = no estimate)
	downSpb float64 // downlink seconds-per-byte EWMA
	upAt    int64   // central mono ns of the last uplink sample
	downAt  int64
	upN     int // samples folded in since the last reset
	downN   int

	upGauge   *telemetry.Gauge // nil disables
	downGauge *telemetry.Gauge // nil disables
}

// ewmaSpb folds one seconds-per-byte sample into the running estimate
// with the attack/decay asymmetry described above.
func ewmaSpb(cur, sample float64) float64 {
	if cur <= 0 {
		return sample
	}
	a := linkDecayAlpha
	if sample > cur {
		a = linkAttackAlpha
	}
	return cur + a*(sample-cur)
}

// observe folds one tile exchange's transfer measurements in: bytes on
// the wire in each direction and the phase durations (central-clock ns)
// the bytes took. Zero or negative inputs on a direction skip it — the
// phase decomposition yields no uplink/downlink split without a timing
// record, and a zero-byte frame carries no rate information.
func (l *linkState) observe(upBytes, downBytes, upNs, downNs int64) {
	now := monoNow()
	l.mu.Lock()
	if upBytes > 0 && upNs > 0 {
		d := upNs
		if d < int64(linkMinDur) {
			d = int64(linkMinDur)
		}
		l.upSpb = ewmaSpb(l.upSpb, float64(d)/1e9/float64(upBytes))
		l.upAt = now
		l.upN++
	}
	if downBytes > 0 && downNs > 0 {
		d := downNs
		if d < int64(linkMinDur) {
			d = int64(linkMinDur)
		}
		l.downSpb = ewmaSpb(l.downSpb, float64(d)/1e9/float64(downBytes))
		l.downAt = now
		l.downN++
	}
	up, down := l.ratesLocked(now)
	l.mu.Unlock()
	if l.upGauge != nil {
		l.upGauge.Set(up)
	}
	if l.downGauge != nil {
		l.downGauge.Set(down)
	}
}

// ratesLocked converts the estimates to bytes/sec for the gauges and
// /debug/sessions, returning 0 ("unknown or stale") for a direction
// whose estimate is missing, rests on fewer than linkMinSamples
// samples, or has had no sample for linkStale — a node that stopped
// receiving tiles shows no rate rather than the last one it was
// measured at.
func (l *linkState) ratesLocked(now int64) (upBps, downBps float64) {
	if l.upSpb > 0 && l.upN >= linkMinSamples && now-l.upAt <= int64(linkStale) {
		upBps = 1 / l.upSpb
	}
	if l.downSpb > 0 && l.downN >= linkMinSamples && now-l.downAt <= int64(linkStale) {
		downBps = 1 / l.downSpb
	}
	return upBps, downBps
}

// snapshot reports the debug view: rates plus the sample count.
func (l *linkState) snapshot() (upBps, downBps float64, samples int) {
	now := monoNow()
	l.mu.Lock()
	defer l.mu.Unlock()
	upBps, downBps = l.ratesLocked(now)
	return upBps, downBps, l.upN + l.downN
}

// reset discards the transfer estimates (a reconnected node may be on a
// different path).
func (l *linkState) reset() {
	l.mu.Lock()
	l.upSpb, l.downSpb = 0, 0
	l.upAt, l.downAt = 0, 0
	l.upN, l.downN = 0, 0
	l.mu.Unlock()
}
