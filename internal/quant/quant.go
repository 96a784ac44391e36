// Package quant implements the low-precision linear quantization ADCNN
// applies to Conv-node outputs (paper Section 4.2): non-zero activations
// in [0, range] are rounded to the nearest of 2^bits uniformly spaced
// levels. Training uses the straight-through estimator, so the backward
// pass treats the quantizer as the identity inside its range.
package quant

import "math"

// Quantizer maps float32 activations in [0, Range] onto 2^Bits levels.
// Level 0 represents exact zero, preserving the sparsity created by the
// clipped ReLU.
type Quantizer struct {
	Bits  int
	Range float32
}

// New creates a quantizer. bits must be in [1, 16] and rng > 0.
func New(bits int, rng float32) Quantizer {
	if bits < 1 || bits > 16 {
		panic("quant: bits out of [1,16]")
	}
	if rng <= 0 {
		panic("quant: range must be positive")
	}
	return Quantizer{Bits: bits, Range: rng}
}

// Levels returns the number of representable values (including zero).
func (q Quantizer) Levels() int { return 1 << q.Bits }

// Step returns the quantization step size.
func (q Quantizer) Step() float32 { return q.Range / float32(q.Levels()-1) }

// Encode maps x (clamped to [0, Range]) to its level index.
func (q Quantizer) Encode(x float32) uint16 {
	if x <= 0 {
		return 0
	}
	if x >= q.Range {
		return uint16(q.Levels() - 1)
	}
	return uint16(math.Round(float64(x / q.Step())))
}

// Decode maps a level index back to its representative value.
func (q Quantizer) Decode(level uint16) float32 {
	return float32(level) * q.Step()
}

// ZeroThreshold returns the exact level-0 boundary T: for every finite,
// non-NaN x, Encode(x) == 0 if and only if x < T. The fused boundary
// codec classifies zero runs with one float compare against T instead of
// a divide + round per element, so T must reproduce Encode's rounding
// bit-exactly: it is the smallest float32 whose float32 quotient by
// Step() reaches 0.5 (math.Round's half-away-from-zero cutover). The
// candidate 0.5·Step() is nudged by ULPs until it straddles the cutover,
// which terminates within a couple of steps.
func (q Quantizer) ZeroThreshold() float32 {
	step := q.Step()
	if math.IsInf(float64(step), 1) {
		// Range = +Inf: every finite x has Round(x/step) == 0, matching
		// Encode, so everything below +Inf is a zero.
		return step
	}
	t := 0.5 * step
	for t > 0 {
		prev := math.Nextafter32(t, 0)
		if prev/step >= 0.5 {
			t = prev
			continue
		}
		break
	}
	for t/step < 0.5 {
		t = math.Nextafter32(t, float32(math.Inf(1)))
	}
	return t
}

// Apply quantizes x in place (round-trip Encode∘Decode over a slice).
func (q Quantizer) Apply(xs []float32) {
	for i, v := range xs {
		xs[i] = q.Decode(q.Encode(v))
	}
}

// MaxError returns the worst-case absolute rounding error for inputs in
// [0, Range]: half a step.
func (q Quantizer) MaxError() float32 { return q.Step() / 2 }
