package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStatsConvergesToSteadyCounts(t *testing.T) {
	st := NewStats(2, 0.9, 8)
	for i := 0; i < 50; i++ {
		st.Update([]int{12, 4})
	}
	s := st.Speeds()
	if math.Abs(s[0]-12) > 0.01 || math.Abs(s[1]-4) > 0.01 {
		t.Fatalf("speeds = %v, want ≈[12 4]", s)
	}
}

func TestStatsDecayTracksChange(t *testing.T) {
	// γ=0.9 (paper's setting) adapts almost immediately.
	st := NewStats(1, 0.9, 8)
	st.Update([]int{0}) // node failed
	if st.Speed(0) > 1 {
		t.Fatalf("speed after failure = %v, should collapse quickly", st.Speed(0))
	}
	// small γ adapts slowly
	slow := NewStats(1, 0.1, 8)
	slow.Update([]int{0})
	if slow.Speed(0) < 7 {
		t.Fatalf("low-gamma speed = %v, should decay slowly", slow.Speed(0))
	}
}

func TestStatsValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewStats(0, 0.5, 1) },
		func() { NewStats(2, 0, 1) },
		func() { NewStats(2, 1.5, 1) },
		func() { NewStats(2, 0.5, 1).Update([]int{1, 2, 3}) },
		func() { NewStats(2, 0.5, 1).Update([]int{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestAllocateEqualSpeedsBalanced(t *testing.T) {
	a, err := Allocate(64, []float64{8, 8, 8, 8, 8, 8, 8, 8}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, x := range a {
		if x != 8 {
			t.Fatalf("node %d got %d tiles, want 8 (allocation %v)", k, x, a)
		}
	}
}

func TestAllocateProportionalToSpeed(t *testing.T) {
	// Figure 15(c): after nodes 5-8 degrade, fast nodes get ~12 tiles and
	// slow ones 3-5. Emulate with speeds 12,12,12,12,5,5,3,3.
	speeds := []float64{12, 12, 12, 12, 5, 5, 3, 3}
	a, err := Allocate(64, speeds, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() != 64 {
		t.Fatalf("total %d", a.Total())
	}
	for k := 0; k < 4; k++ {
		if a[k] < 10 || a[k] > 14 {
			t.Fatalf("fast node %d got %d tiles: %v", k, a[k], a)
		}
	}
	for k := 6; k < 8; k++ {
		if a[k] < 2 || a[k] > 4 {
			t.Fatalf("slow node %d got %d tiles: %v", k, a[k], a)
		}
	}
}

func TestAllocateSkipsFailedNodes(t *testing.T) {
	a, err := Allocate(10, []float64{5, 0, 5}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a[1] != 0 {
		t.Fatalf("failed node received tiles: %v", a)
	}
	if a[0]+a[2] != 10 {
		t.Fatalf("allocation %v", a)
	}
}

func TestAllocateRespectsStorageCapacity(t *testing.T) {
	// Node 0 is fast but can hold only 2 tiles.
	caps := []int64{2 * 100, 100 * 100}
	a, err := Allocate(10, []float64{100, 1}, 100, caps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != 2 || a[1] != 8 {
		t.Fatalf("allocation %v, want [2 8]", a)
	}
}

func TestAllocateNoCapacityError(t *testing.T) {
	caps := []int64{100, 100}
	if _, err := Allocate(5, []float64{1, 1}, 100, caps, nil); err != ErrNoCapacity {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
	if _, err := Allocate(1, []float64{0, 0}, 0, nil, nil); err != ErrNoCapacity {
		t.Fatal("all-failed cluster must error")
	}
}

func TestAllocateZeroTiles(t *testing.T) {
	a, err := Allocate(0, []float64{1, 2}, 0, nil, nil)
	if err != nil || a.Total() != 0 {
		t.Fatalf("a=%v err=%v", a, err)
	}
}

// Property: the greedy allocation's bottleneck is within one tile of the
// fractional lower bound tiles/Σs.
func TestAllocateNearOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(8)
		speeds := make([]float64, k)
		var sum float64
		for i := range speeds {
			speeds[i] = 1 + rng.Float64()*15
			sum += speeds[i]
		}
		tiles := 1 + rng.Intn(128)
		a, err := Allocate(tiles, speeds, 0, nil, rng)
		if err != nil || a.Total() != tiles {
			return false
		}
		lower := float64(tiles) / sum
		maxSlow := 0.0
		for i := range speeds {
			if 1/speeds[i] > maxSlow {
				maxSlow = 1 / speeds[i]
			}
		}
		// Greedy is within one tile's worth of work of the fluid optimum.
		return a.Bottleneck(speeds) <= lower+maxSlow+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: allocations are monotone — a faster node never gets fewer
// tiles than a strictly slower node (up to one-tile granularity).
func TestAllocateMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(6)
		speeds := make([]float64, k)
		for i := range speeds {
			speeds[i] = 1 + rng.Float64()*10
		}
		tiles := 1 + rng.Intn(96)
		a, err := Allocate(tiles, speeds, 0, nil, nil)
		if err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if speeds[i] > speeds[j] && a[i] < a[j]-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Algorithm 3 is scale-invariant — multiplying every speed by
// one positive factor leaves the split unchanged, tie-breaking draws
// included: only the ratios between the nodes' speeds decide a split,
// never their unit.
func TestAllocateScaleInvariant(t *testing.T) {
	// same allocates tiles over speeds and over factor·speeds with
	// identically seeded tie-breaking and compares the two splits.
	same := func(tiles int, speeds []float64, factor float64, seed int64) bool {
		scaled := make([]float64, len(speeds))
		for k, s := range speeds {
			scaled[k] = s * factor
		}
		a, errA := Allocate(tiles, speeds, 0, nil, rand.New(rand.NewSource(seed)))
		b, errB := Allocate(tiles, scaled, 0, nil, rand.New(rand.NewSource(seed)))
		if errA != nil || errB != nil {
			return false
		}
		for k := range a {
			if a[k] != b[k] {
				return false
			}
		}
		return true
	}
	cases := map[string]func(rng *rand.Rand) ([]float64, float64){
		// Arbitrary speeds and factors: exact ties have measure zero.
		"arbitrary": func(rng *rand.Rand) ([]float64, float64) {
			speeds := make([]float64, 2+rng.Intn(7))
			for k := range speeds {
				speeds[k] = 0.01 + rng.Float64()*20
			}
			return speeds, math.Exp(rng.Float64()*14 - 7)
		},
		// Exact ties under an arbitrary factor: speeds drawn from one
		// value times a power of two (equal speeds and 1:2:4 ratios) tie
		// exactly before scaling and after, so the same ties reach rng.
		"ties": func(rng *rand.Rand) ([]float64, float64) {
			base := 0.01 + rng.Float64()*20
			speeds := make([]float64, 2+rng.Intn(7))
			for k := range speeds {
				speeds[k] = math.Ldexp(base, rng.Intn(3))
			}
			return speeds, math.Exp(rng.Float64()*14 - 7)
		},
		// Power-of-two factors scale exactly, so any speeds — small
		// integers that tie at many ratios, and dead nodes — keep their
		// split.
		"pow2": func(rng *rand.Rand) ([]float64, float64) {
			speeds := make([]float64, 2+rng.Intn(7))
			for k := range speeds {
				speeds[k] = float64(rng.Intn(6))
			}
			speeds[rng.Intn(len(speeds))] = 1 + float64(rng.Intn(5))
			return speeds, math.Ldexp(1, rng.Intn(41)-20)
		},
	}
	for name, gen := range cases {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			speeds, factor := gen(rng)
			return same(1+rng.Intn(128), speeds, factor, seed)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestBottleneckInfiniteForZeroSpeed(t *testing.T) {
	a := Allocation{1, 0}
	if a.Bottleneck([]float64{0, 1}) < 1e299 {
		t.Fatal("zero-speed node with tiles must have infinite bottleneck")
	}
}

// TestAllocateAllocatesOnlyItsAnswer: a call makes its Allocation and
// nothing else, with and without an rng to break the ties.
func TestAllocateAllocatesOnlyItsAnswer(t *testing.T) {
	speeds := []float64{1, 1}
	for _, rng := range []*rand.Rand{nil, rand.New(rand.NewSource(1))} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Allocate(16, speeds, 0, nil, rng); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Fatalf("rng %v: Allocate(16 tiles, 2 nodes) allocates %.1f times, want 1", rng != nil, allocs)
		}
	}
}

// TestAllocateTieBreakGolden pins the seeded tie-break draws: twelve
// calls on one rng over tied speeds, a failed node and a capacity bound,
// and the rng's next draw (so the number of draws too).
func TestAllocateTieBreakGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	speeds := []float64{2, 2, 1, 2, 0, 1}
	caps := []int64{64, 64, 64, 24, 64, 64}
	want := [][]int{
		{0, 0, 0, 1, 0, 0}, {1, 0, 0, 1, 0, 0}, {1, 1, 0, 1, 0, 0}, {1, 2, 0, 1, 0, 0},
		{1, 1, 0, 2, 0, 1}, {1, 2, 1, 1, 0, 1}, {2, 2, 1, 1, 0, 1}, {2, 2, 1, 2, 0, 1},
		{2, 3, 1, 2, 0, 1}, {3, 2, 1, 3, 0, 1}, {3, 3, 1, 3, 0, 1}, {4, 3, 1, 3, 0, 1},
	}
	for i, w := range want {
		x, err := Allocate(i+1, speeds, 8, caps, rng)
		if err != nil {
			t.Fatal(err)
		}
		for k := range w {
			if x[k] != w[k] {
				t.Fatalf("call %d: %v, want %v", i+1, x, w)
			}
		}
	}
	if next := rng.Intn(1000); next != 178 {
		t.Fatalf("next draw %d, want 178: the calls drew a different number of times", next)
	}
}
