package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randInt8(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(rng.Intn(256) - 128)
	}
	return s
}

func randUint8(rng *rand.Rand, n int) []uint8 {
	s := make([]uint8, n)
	for i := range s {
		s[i] = uint8(rng.Intn(256))
	}
	return s
}

// TestGemmInt8MatchesRef pins the tiled engine against the naive oracle
// over shapes that exercise the 2×4 tile, the odd-row and odd-column
// tails, and (on multi-core hosts) the parallel row chunking.
func TestGemmInt8MatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 16}, {2, 4, 16}, {3, 5, 32}, {4, 4, 48},
		{7, 9, 16}, {8, 31, 64}, {16, 16, 160}, {5, 2, 4592},
		{64, 256, 128}, // crosses the parallel threshold
	}
	for _, s := range shapes {
		m, n, kp := s[0], s[1], s[2]
		a := randInt8(rng, m*kp)
		b := randUint8(rng, n*kp)
		got := make([]int32, m*n)
		want := make([]int32, m*n)
		GemmInt8DotInto(got, a, b, m, n, kp)
		RefGemmInt8DotInto(want, a, b, m, n, kp)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shape %v: c[%d] = %d, want %d", s, i, got[i], want[i])
			}
		}
	}
}

func TestGemmInt8RejectsBadKP(t *testing.T) {
	for _, kp := range []int{0, 8, 17, int8MaxKP + 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("kp=%d: expected panic", kp)
				}
			}()
			GemmInt8DotInto(make([]int32, 1), make([]int8, kp), make([]uint8, kp), 1, 1, kp)
		}()
	}
}

// TestKernelTierParityInt8 is the build-tag matrix parity test: for every
// kernel tier reachable on this host, the dispatched int8 micro-kernel
// must produce accumulations identical to the always-compiled pure-Go
// kernel — int8×uint8→int32 is exact arithmetic, so any deviation is a
// kernel bug, not rounding.
func TestKernelTierParityInt8(t *testing.T) {
	detected := DetectedKernelTier()
	defer SetKernelTier(detected)
	rng := rand.New(rand.NewSource(11))
	for _, tier := range reachableTiers() {
		if err := SetKernelTier(tier); err != nil {
			t.Fatalf("SetKernelTier(%v): %v", tier, err)
		}
		for trial := 0; trial < 20; trial++ {
			kp := int8KStep * (1 + rng.Intn(40))
			a0 := randInt8(rng, kp)
			a1 := randInt8(rng, kp)
			b0 := randUint8(rng, kp)
			b1 := randUint8(rng, kp)
			b2 := randUint8(rng, kp)
			b3 := randUint8(rng, kp)
			var got, want [8]int32
			int8Dot2x4(&got, a0, a1, b0, b1, b2, b3, kp)
			int8Dot2x4Generic(&want, a0, a1, b0, b1, b2, b3, kp)
			if got != want {
				t.Fatalf("tier %v kp=%d: kernel %v, generic %v", tier, kp, got, want)
			}
		}
	}
}

// TestKernelTierParityF32 extends the matrix to the f32 micro-kernel
// entry point: one tile through gemmTile on every reachable tier against
// the portable kernel. The FMA tiers round once per step where the
// portable kernel rounds twice, so they are pinned within a k-scaled
// bound; the portable tier is the oracle and must match itself exactly.
func TestKernelTierParityF32(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		tier := CurrentKernelTier()
		mr, nrMax := gemmTileShape()
		for trial := 0; trial < 40; trial++ {
			k := 1 + rng.Intn(300)
			nr := 1 + rng.Intn(nrMax)
			lda, ldb, ldc := k+rng.Intn(3), nrMax+rng.Intn(5), nrMax+rng.Intn(5)
			a := randSlice(rng, mr*lda)
			b := randSlice(rng, (k-1)*ldb+nr) // ends with the last live element
			bias := randSlice(rng, mr)
			got := randSlice(rng, mr*ldc)
			want := append([]float32(nil), got...)
			gemmTile(got, ldc, a, lda, b, ldb, k, nr, bias)
			for r := 0; r < mr; r += 4 { // the portable tile is 4 rows
				rows := min(4, mr-r)
				tile := make([]float32, 4*ldc)
				ar := make([]float32, 4*lda)
				copy(ar, a[r*lda:(r+rows)*lda])
				var br [4]float32
				copy(br[:], bias[r:r+rows])
				gemmTileGeneric(tile, ldc, ar, lda, b, ldb, k, nr, br[:])
				for q := 0; q < rows; q++ {
					copy(want[(r+q)*ldc:][:nr], tile[q*ldc:])
				}
			}
			tol := 2e-7 * float64(k+1) * 4
			for i := range got {
				d := math.Abs(float64(got[i] - want[i]))
				if tier == TierGeneric && d != 0 {
					t.Fatalf("k=%d nr=%d: element %d not bit-exact (%g)", k, nr, i, d)
				}
				if d > tol {
					t.Fatalf("k=%d nr=%d: element %d off by %g > %g (columns past nr must stay untouched)", k, nr, i, d, tol)
				}
			}
		}
	})
}

func TestSetKernelTierRejectsAboveDetected(t *testing.T) {
	if err := SetKernelTier(DetectedKernelTier() + 1); err == nil {
		t.Fatal("expected error for tier above detected")
	}
	if err := SetKernelTier(KernelTier(-1)); err == nil {
		t.Fatal("expected error for negative tier")
	}
	if got := CurrentKernelTier(); got != DetectedKernelTier() {
		t.Fatalf("rejected SetKernelTier changed the tier to %v", got)
	}
}

// TestRequantizeI32Row checks the requantization identity against a
// float64 evaluation.
func TestRequantizeI32Row(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	acc := make([]int32, 33)
	for i := range acc {
		acc[i] = rng.Int31n(1<<20) - 1<<19
	}
	dst := make([]float32, len(acc))
	scale, corr, bias := float32(0.003), int32(1234), float32(-0.5)
	RequantizeI32Row(dst, acc, scale, corr, bias)
	for i := range dst {
		want := float64(scale)*float64(acc[i]-corr) + float64(bias)
		if math.Abs(float64(dst[i])-want) > 1e-4 {
			t.Fatalf("dst[%d] = %g, want %g", i, dst[i], want)
		}
	}
}

// TestGemmInt8VsF32Oracle quantizes a random f32 product and checks the
// int8 GEMM + requantization lands within the analytic quantization
// error bound of the f32 reference:
//
//	|y − ŷ| ≤ aErr·Σ_k|w[k]| + wErr·Σ_k|x̂[k]|
//
// with aErr the activation step (rounding ½ + zero-point grid shift ½)
// and wErr half the per-channel weight step.
func TestGemmInt8VsF32Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m, n, k := 6, 9, 40
	kp := Int8KP(k)
	w := make([]float32, m*k)
	x := make([]float32, k*n)
	for i := range w {
		w[i] = rng.Float32()*2 - 1
	}
	for i := range x {
		x[i] = rng.Float32()*4 - 1
	}
	// f32 reference: y[i][j] = Σ_k w[i][k]·x[k][j].
	ref := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += float64(w[i*k+kk]) * float64(x[kk*n+j])
			}
			ref[i*n+j] = s
		}
	}
	// Per-channel symmetric weight quantization.
	wq := make([]int8, m*kp)
	wScale := make([]float32, m)
	rowSum := make([]int32, m)
	for i := 0; i < m; i++ {
		var maxAbs float32
		for kk := 0; kk < k; kk++ {
			if a := float32(math.Abs(float64(w[i*k+kk]))); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			maxAbs = 1
		}
		sc := maxAbs / 127
		wScale[i] = sc
		for kk := 0; kk < k; kk++ {
			q := int8(math.Round(float64(w[i*k+kk] / sc)))
			wq[i*kp+kk] = q
			rowSum[i] += int32(q)
		}
	}
	// Affine activation quantization over the whole operand.
	mn, mx := MinMax(x)
	if mn > 0 {
		mn = 0
	}
	if mx < 0 {
		mx = 0
	}
	aScale := (mx - mn) / 255
	zp := uint8(math.Round(float64(-mn / aScale)))
	// Pack x transposed: bq[j][kk] = quant(x[kk][j]).
	bq := make([]uint8, n*kp)
	for j := 0; j < n; j++ {
		for kk := 0; kk < k; kk++ {
			bq[j*kp+kk] = QuantizeAffine(x[kk*n+j], 1/aScale, float32(zp))
		}
	}
	acc := make([]int32, m*n)
	GemmInt8DotInto(acc, wq, bq, m, n, kp)
	for i := 0; i < m; i++ {
		row := make([]float32, n)
		RequantizeI32Row(row, acc[i*n:(i+1)*n], wScale[i]*aScale, int32(zp)*rowSum[i], 0)
		for j := 0; j < n; j++ {
			// Analytic bound for this output element.
			var sumAbsW, sumAbsXhat float64
			for kk := 0; kk < k; kk++ {
				sumAbsW += math.Abs(float64(w[i*k+kk]))
				xhat := float64(aScale) * float64(int32(bq[j*kp+kk])-int32(zp))
				sumAbsXhat += math.Abs(xhat)
			}
			bound := float64(aScale)*sumAbsW + float64(wScale[i]/2)*sumAbsXhat + 1e-3
			if d := math.Abs(float64(row[j]) - ref[i*n+j]); d > bound {
				t.Fatalf("y[%d][%d]: int8 %g vs f32 %g, |Δ|=%g > bound %g",
					i, j, row[j], ref[i*n+j], d, bound)
			}
		}
	}
}
