package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLevelsAndStep(t *testing.T) {
	q := New(4, 3.0)
	if q.Levels() != 16 {
		t.Fatalf("Levels = %d, want 16", q.Levels())
	}
	if got, want := q.Step(), float32(3.0/15.0); got != want {
		t.Fatalf("Step = %v, want %v", got, want)
	}
}

func TestZeroMapsToZero(t *testing.T) {
	q := New(4, 2.0)
	if q.Encode(0) != 0 {
		t.Fatal("zero must encode to level 0")
	}
	if q.Decode(0) != 0 {
		t.Fatal("level 0 must decode to exactly zero")
	}
	if q.Encode(-1) != 0 {
		t.Fatal("negative inputs clamp to level 0")
	}
}

func TestClampAboveRange(t *testing.T) {
	q := New(4, 1.0)
	if q.Encode(5.0) != 15 {
		t.Fatalf("Encode(5.0) = %d, want 15", q.Encode(5.0))
	}
}

func TestRoundTripErrorBound(t *testing.T) {
	q := New(4, 1.8)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		x := rng.Float32() * q.Range
		y := q.Decode(q.Encode(x))
		d := x - y
		if d < 0 {
			d = -d
		}
		if d > q.MaxError()*1.0001 {
			t.Fatalf("round-trip error %v exceeds bound %v for x=%v", d, q.MaxError(), x)
		}
	}
}

// Property: quantization is idempotent — Apply twice equals Apply once.
func TestIdempotenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New(1+rng.Intn(8), 0.5+rng.Float32()*3)
		xs := make([]float32, 64)
		for i := range xs {
			xs[i] = rng.Float32() * q.Range * 1.2
		}
		once := append([]float32(nil), xs...)
		q.Apply(once)
		twice := append([]float32(nil), once...)
		q.Apply(twice)
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantization is monotone non-decreasing.
func TestMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New(2+rng.Intn(6), 1+rng.Float32()*2)
		a := rng.Float32() * q.Range
		b := rng.Float32() * q.Range
		if a > b {
			a, b = b, a
		}
		return q.Encode(a) <= q.Encode(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeSlice(t *testing.T) {
	q := New(4, 1.5)
	back := []float32{0, 0.1, 0.75, 1.5, 2.0}
	q.Apply(back)
	if back[0] != 0 {
		t.Fatal("zero must survive the round trip exactly")
	}
	if back[3] != 1.5 {
		t.Fatalf("full-range value must survive exactly, got %v", back[3])
	}
	if back[4] != 1.5 {
		t.Fatalf("out-of-range clamps to Range, got %v", back[4])
	}
}

func TestBadArgsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 1) },
		func() { New(17, 1) },
		func() { New(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestZeroThresholdBoundary proves the fused codec's contract: for every
// finite non-NaN x, Encode(x) == 0 exactly when x < ZeroThreshold().
// The threshold itself and its immediate float32 neighbours are the
// critical probes — one ULP of slack there silently corrupts payloads.
func TestZeroThresholdBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bits := range []int{1, 2, 4, 8, 12, 16} {
		for _, r := range []float32{1e-38, 1e-6, 0.5, 1, 6, 1e6, 1e30, 3.4e38} {
			q := New(bits, r)
			zt := q.ZeroThreshold()
			probes := []float32{
				0, -1, zt, nextUp(zt), nextDown(zt),
				nextDown(nextDown(zt)), 0.5 * q.Step(), q.Step(),
			}
			for i := 0; i < 200; i++ {
				probes = append(probes, float32(rng.Float64())*q.Step())
			}
			for _, x := range probes {
				isZero := q.Encode(x) == 0
				belowT := x < zt
				if isZero != belowT {
					t.Fatalf("bits=%d range=%v: x=%v Encode=%d but x<T(%v)=%v",
						bits, r, x, q.Encode(x), zt, belowT)
				}
			}
		}
	}
}

func nextUp(x float32) float32 {
	return math.Nextafter32(x, float32(math.Inf(1)))
}

func nextDown(x float32) float32 {
	return math.Nextafter32(x, float32(math.Inf(-1)))
}
