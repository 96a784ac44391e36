// Package stats provides the small statistical helpers the benchmark
// harness uses to report means and 95% confidence intervals, matching
// the error bars in the paper's figures.
package stats

import (
	"math"
	"time"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// CI95 returns the mean and the half-width of the 95% confidence
// interval using the normal approximation (1.96·σ/√n).
func CI95(xs []float64) (mean, half float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	half = 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
	return
}

// Durations converts a slice of durations to float64 milliseconds.
func Durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
