package tensor

import (
	"math/rand"
	"runtime"
	"testing"
)

// reachableTiers lists every tier SetKernelTier accepts on this host.
func reachableTiers() []KernelTier {
	var ts []KernelTier
	for _, t := range []KernelTier{TierGeneric, TierAVX2, TierAVX512} {
		if t <= DetectedKernelTier() {
			ts = append(ts, t)
		}
	}
	return ts
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

// forEachTier runs f once per reachable tier and restores the detected one.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer SetKernelTier(DetectedKernelTier())
	for _, tier := range reachableTiers() {
		if err := SetKernelTier(tier); err != nil {
			t.Fatalf("SetKernelTier(%v): %v", tier, err)
		}
		t.Run(tier.String(), f)
	}
}

// refGemmBias is the oracle for a GemmEpilogueInto with only a bias: RefMatMulInto plus the bias.
func refGemmBias(a, b, bias []float32, m, k, n int) []float32 {
	want := New(m, n)
	RefMatMulInto(want, FromSlice(a, m, k), FromSlice(b, k, n))
	for i := 0; i < m && bias != nil; i++ {
		for j := 0; j < n; j++ {
			want.Data[i*n+j] += bias[i]
		}
	}
	return want.Data
}

// TestGemmTileClassesMatchReference drives the micro-kernel driver over
// every residue of m modulo the tile height and n modulo the tile width
// (full tiles, column-masked tiles, the overlapping bottom edge, products
// shorter than one tile), k from 0 up, with and without a bias, inline
// and across the parallel threshold, on every tier — against the naive
// reference within the rounding bound.
func TestGemmTileClassesMatchReference(t *testing.T) {
	ks := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 130}
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		mr, nr := gemmTileShape()
		check := func(m, k, n int, biased bool) {
			t.Helper()
			a, b := randSlice(rng, m*k), randSlice(rng, k*n)
			var bias []float32
			if biased {
				bias = randSlice(rng, m)
			}
			got := randSlice(rng, m*n+3) // stale contents, and a tail that must survive
			tail := append([]float32(nil), got[m*n:]...)
			GemmEpilogueInto(got, a, b, m, k, n, Epilogue{Bias: bias})
			want := refGemmBias(a, b, bias, m, k, n)
			for i, w := range want {
				if d := float64(got[i] - w); d > gemmTol(k) || -d > gemmTol(k) {
					t.Fatalf("(%d,%d,%d) bias=%v: c[%d] = %g, want %g", m, k, n, biased, i, got[i], w)
				}
			}
			for i, v := range tail {
				if got[m*n+i] != v {
					t.Fatalf("(%d,%d,%d): wrote past m*n", m, k, n)
				}
			}
		}
		trial := 0
		for rm := 0; rm < mr; rm++ {
			for rn := 0; rn < nr; rn++ {
				m, n := rm+mr*rng.Intn(3), rn+nr*rng.Intn(3)
				check(max(m, 1), ks[trial%len(ks)], max(n, 1), trial%3 == 0)
				trial++
			}
		}
		// Either side of the parallel threshold, both split axes (the last
		// two have a column panel per chunk on every tier).
		old := runtime.GOMAXPROCS(3)
		defer runtime.GOMAXPROCS(old)
		for _, s := range [][3]int{{64, 256, 255}, {64, 256, 256}, {97, 300, 160}, {301, 100, 150}, {41, 900, 130}, {23, 200, 931}, {5, 1100, 800}} {
			check(s[0], s[1], s[2], true)
		}
	})
}

// TestGemmPositionIndependence pins the determinism rule bit for bit:
// rows [i0,i1) × columns [j0,j1) of a wide product equal the same block
// computed alone (so the block lands in other tiles, against other
// edges), and one worker agrees with several.
func TestGemmPositionIndependence(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		for trial := 0; trial < 60; trial++ {
			m, k, n := 1+rng.Intn(60), 1+rng.Intn(200), 1+rng.Intn(150)
			a, b, bias := randSlice(rng, m*k), randSlice(rng, k*n), randSlice(rng, m)
			whole := make([]float32, m*n)
			GemmEpilogueInto(whole, a, b, m, k, n, Epilogue{Bias: bias})

			i0, j0 := rng.Intn(m), rng.Intn(n)
			i1, j1 := i0+1+rng.Intn(m-i0), j0+1+rng.Intn(n-j0)
			bm, bn := i1-i0, j1-j0
			bsub := make([]float32, k*bn)
			for p := 0; p < k; p++ {
				copy(bsub[p*bn:(p+1)*bn], b[p*n+j0:p*n+j1])
			}
			block := make([]float32, bm*bn)
			GemmEpilogueInto(block, a[i0*k:i1*k], bsub, bm, k, bn, Epilogue{Bias: bias[i0:i1]})
			for r := 0; r < bm; r++ {
				for q := 0; q < bn; q++ {
					if got, want := block[r*bn+q], whole[(i0+r)*n+j0+q]; got != want {
						t.Fatalf("(%d,%d,%d) block rows [%d,%d) cols [%d,%d): [%d,%d] = %g alone, %g in place",
							m, k, n, i0, i1, j0, j1, r, q, got, want)
					}
				}
			}
		}
		// Thread split: both axes, above the parallel threshold.
		for _, s := range [][3]int{{130, 300, 120}, {40, 400, 300}, {300, 400, 40}, {20, 300, 805}} {
			m, k, n := s[0], s[1], s[2]
			a, b := randSlice(rng, m*k), randSlice(rng, k*n)
			var out [2][]float32
			for i, procs := range []int{1, 2} {
				old := runtime.GOMAXPROCS(procs)
				out[i] = make([]float32, m*n)
				GemmInto(out[i], a, b, m, k, n)
				runtime.GOMAXPROCS(old)
			}
			for i := range out[0] {
				if out[0][i] != out[1][i] {
					t.Fatalf("(%d,%d,%d): GOMAXPROCS 1 and 2 differ at %d: %g vs %g", m, k, n, i, out[0][i], out[1][i])
				}
			}
		}
	})
}
