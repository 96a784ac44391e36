package stats

import (
	"math"
	"testing"
	"time"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean must be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Fatal("single-sample stddev must be 0")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	// Sample stddev of this classic set is ≈ 2.138.
	if math.Abs(got-2.138) > 0.01 {
		t.Fatalf("stddev = %v", got)
	}
}

func TestCI95(t *testing.T) {
	mean, half := CI95([]float64{10, 10, 10, 10})
	if mean != 10 || half != 0 {
		t.Fatalf("constant data: mean %v half %v", mean, half)
	}
	_, half = CI95([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	if half <= 0 {
		t.Fatal("varying data must have positive CI width")
	}
}

func TestDurations(t *testing.T) {
	ds := Durations([]time.Duration{time.Second, 500 * time.Millisecond})
	if ds[0] != 1000 || ds[1] != 500 {
		t.Fatalf("Durations = %v", ds)
	}
}
