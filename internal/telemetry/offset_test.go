package telemetry

import (
	"math/rand"
	"testing"
)

// exchange simulates one request/response pair between a local clock and
// a remote clock running at local+skew, with the given one-way delays
// (all in nanoseconds, local clock), and feeds it to the estimator.
func exchange(e *OffsetEstimator, localNow, skew, up, proc, down int64) (offset int64, nextLocal int64) {
	t0 := localNow
	t1 := t0 + up + skew // remote clock reading at arrival
	t2 := t1 + proc
	t3 := t0 + up + proc + down
	off, _ := e.Update(t0, t1, t2, t3)
	return off, t3
}

func TestOffsetConvergesUnderConstantSkew(t *testing.T) {
	// Remote clock = local + skew. The additive convention is
	// remote + Offset() = local, so the estimate must converge to -skew.
	const skew = 3_000_000 // 3ms
	e := NewOffsetEstimator()
	now := int64(1_000)
	for i := 0; i < 200; i++ {
		_, now = exchange(e, now, skew, 50_000, 400_000, 50_000)
		now += 1_000_000
	}
	got := e.Offset()
	if diff := got + skew; diff < -5_000 || diff > 5_000 {
		t.Fatalf("offset %d, want ~%d (symmetric paths: exact up to rounding)", got, -skew)
	}
	if e.Samples() != 200 {
		t.Fatalf("samples %d, want 200", e.Samples())
	}
	if e.RTT() != 100_000 {
		t.Fatalf("RTT %d, want 100000 (excludes remote processing)", e.RTT())
	}
}

func TestOffsetTracksDrift(t *testing.T) {
	// The remote clock drifts 50ppm fast: after each 1ms step the skew
	// grows by 50ns. Every exchange has the same RTT, so the clock filter
	// picks the newest and the estimate must follow the drift.
	e := NewOffsetEstimator()
	now := int64(1_000)
	skew := int64(1_000_000)
	for i := 0; i < 2000; i++ {
		_, now = exchange(e, now, skew, 30_000, 100_000, 30_000)
		now += 1_000_000
		skew += 50
	}
	got := e.Offset()
	// The newest exchange's midpoint is exact on these symmetric paths,
	// so the estimate trails by the one step of drift since (50ns);
	// allow generous slack.
	if diff := got + skew; diff < -20_000 || diff > 20_000 {
		t.Fatalf("offset %d lags true -%d by %d, want within 20µs", got, skew, got+skew)
	}
}

func TestOffsetBoundedUnderAsymmetricRTT(t *testing.T) {
	// NTP-style midpoint estimation cannot see path asymmetry: with
	// uplink u and downlink d the bias is exactly (d-u)/2. Verify the
	// error never exceeds RTT/2 — the theoretical bound.
	const skew = 2_000_000
	const up, down = 1_600_000, 400_000 // heavily asymmetric
	e := NewOffsetEstimator()
	now := int64(1_000)
	for i := 0; i < 100; i++ {
		_, now = exchange(e, now, skew, up, 200_000, down)
		now += 500_000
	}
	err := e.Offset() + skew // residual bias
	if err < 0 {
		err = -err
	}
	if bound := int64(up+down) / 2; err > bound {
		t.Fatalf("offset error %d exceeds RTT/2 bound %d", err, bound)
	}
	// And the bias should be close to (down-up)/2 = -600µs in the stored
	// (negated) convention: Offset = -skew - (up-down)/2.
	want := -int64(skew) - (up-down)/2
	if diff := e.Offset() - want; diff < -10_000 || diff > 10_000 {
		t.Fatalf("offset %d, want ~%d for %dns/%dns asymmetry", e.Offset(), want, up, down)
	}
}

func TestOffsetFilterPicksMinimumRTTExchange(t *testing.T) {
	// Every exchange but one queues on the uplink, so its midpoint is
	// biased by (up−down)/2; the symmetric one has the lowest RTT and its
	// offset is exactly −skew. The filter must report that offset itself
	// while the exchange is among the last eight, then, after the remote
	// clock steps, follow the new skew within eight exchanges.
	const skew, stepped = 1_000_000, 5_000_000
	e := NewOffsetEstimator()
	now := int64(1_000)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		up, down := int64(300_000+rng.Intn(1_000_000)), int64(50_000)
		if i == 4 {
			up, down = 100_000, 100_000
		}
		_, now = exchange(e, now, skew, up, 50_000, down)
		now += 200_000
		if got := e.Offset(); i >= 4 && got != -skew {
			t.Fatalf("after exchange %d: offset %d, want exactly %d (the minimum-RTT exchange's)", i, got, -skew)
		}
	}
	for i := 1; ; i++ {
		_, now = exchange(e, now, stepped, 150_000, 50_000, 150_000)
		now += 200_000
		if e.Offset() == -stepped {
			break
		}
		if i == offsetFilterLen {
			t.Fatalf("offset %d after %d exchanges at the new skew, want %d", e.Offset(), i, -stepped)
		}
	}
}

func TestOffsetDeratesNoisySamples(t *testing.T) {
	// Samples taken over a congested (high-RTT) exchange must not move
	// the estimate: converge on clean exchanges, then hit the estimator
	// with wildly biased high-RTT samples. While a clean exchange is among
	// the last eight the filter picks it; after that the delay gate holds
	// the estimate, since the best of the eight is far above the floor.
	const skew = 1_000_000
	e := NewOffsetEstimator()
	now := int64(1_000)
	for i := 0; i < 100; i++ {
		_, now = exchange(e, now, skew, 20_000, 50_000, 20_000)
		now += 200_000
	}
	before := e.Offset()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		// 100× the RTT, all of it on the uplink: a grossly biased sample.
		jitter := int64(2_000_000 + rng.Intn(2_000_000))
		_, now = exchange(e, now, skew, jitter, 50_000, 20_000)
		now += 200_000
	}
	after := e.Offset()
	drift := after - before
	if drift < 0 {
		drift = -drift
	}
	// A plain EWMA of the offset (weight 0.2) would absorb ~98% of a
	// ~1-2ms bias over 20 samples; the filter must keep the drift far
	// smaller.
	if drift > 300_000 {
		t.Fatalf("noisy samples moved the estimate by %dns — the minimum-RTT filter let them through", drift)
	}
}

func TestOffsetHoldsThroughCongestion(t *testing.T) {
	// Half a millisecond of latency each way, then twenty exchanges that
	// queue 34 ms up and 16 ms down — more than the filter's window. Each
	// of them is 9 ms off; the estimate must not move until clean
	// exchanges come back, and then it must be exact again.
	const skew = 2_000_000
	e := NewOffsetEstimator()
	now := int64(1_000)
	step := func(up, down int64) {
		_, now = exchange(e, now, skew, up, 100_000, down)
		now += 1_000_000
	}
	for i := 0; i < 16; i++ {
		step(500_000, 500_000)
	}
	for i := 0; i < 20; i++ {
		step(34_000_000, 16_000_000)
		if got := e.Offset(); got != -skew {
			t.Fatalf("congested exchange %d moved the offset to %d, want %d", i, got, -skew)
		}
	}
	step(500_000, 500_000)
	if got := e.Offset(); got != -skew {
		t.Fatalf("offset %d after the congestion, want %d", got, -skew)
	}
}

func TestOffsetRejectsNegativeRTT(t *testing.T) {
	// RTT = (t3−t0)−(t2−t1) = −20 here: not a causally valid exchange.
	e := NewOffsetEstimator()
	if _, rtt := e.Update(100, 50, 60, 90); rtt >= 0 {
		t.Fatalf("expected negative RTT back, got %d", rtt)
	}
	if e.Samples() != 0 {
		t.Fatalf("rejected sample must not count, got %d", e.Samples())
	}
}

func TestOffsetNilSafe(t *testing.T) {
	var e *OffsetEstimator
	e.Update(0, 1, 2, 3)
	if e.Offset() != 0 || e.RTT() != 0 || e.Samples() != 0 {
		t.Fatal("nil estimator accessors must return zero")
	}
}
