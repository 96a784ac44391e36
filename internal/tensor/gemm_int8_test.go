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

// refGemmInt8DotInto is the naive oracle for GemmInt8DotInto: same
// contract, scalar triple loop.
func refGemmInt8DotInto(c []int32, a []int8, b []uint8, m, n, kp int) {
	for i := 0; i < m; i++ {
		ar := a[i*kp : (i+1)*kp]
		for j := 0; j < n; j++ {
			br := b[j*kp : (j+1)*kp]
			var s int32
			for k := range ar {
				s += int32(ar[k]) * int32(br[k])
			}
			c[i*n+j] = s
		}
	}
}

// gemmInt8Requant is GemmInt8RequantInto on [m][kp] weight rows, packed
// for the selected engine.
func gemmInt8Requant(y []float32, ldy int, a []int8, b []uint8, m, n, kp int, rq Int8Requant) {
	w := PackInt8Weights(a, m, kp)
	GemmInt8RequantInto(y, ldy, &w, b, n, rq)
}

// TestGemmInt8MatchesRef pins the selected engine against the naive
// oracle over shapes that exercise its tiles, the odd-row and
// odd-column edges, and (on multi-core hosts) the parallel split.
func TestGemmInt8MatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 64}, {2, 4, 64}, {3, 5, 128}, {4, 4, 192},
		{7, 9, 64}, {8, 31, 64}, {16, 16, 192}, {5, 2, 4608},
		{64, 256, 128}, // crosses the parallel threshold
	}
	for _, s := range shapes {
		m, n, kp := s[0], s[1], s[2]
		a := randInt8(rng, m*kp)
		b := randUint8(rng, n*kp)
		got := make([]int32, m*n)
		want := make([]int32, m*n)
		GemmInt8DotInto(got, a, b, m, n, kp)
		refGemmInt8DotInto(want, a, b, m, n, kp)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shape %v: c[%d] = %d, want %d", s, i, got[i], want[i])
			}
		}
	}
}

func TestGemmInt8RejectsBadKP(t *testing.T) {
	for _, kp := range []int{0, 8, 16, 17, 48, int8MaxKP + 64} {
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

// requantRef is the requantize expression the int8 layers have always
// applied to an exact sum, each operation rounded on its own: the oracle
// the fused kernel epilogues must match bit for bit.
func requantRef(acc int32, scale float32, corr int32, bias float32) float32 {
	return float32(scale*float32(acc-corr)) + bias
}

// TestKernelTierParityInt8 pins every int8 engine reachable on this
// host on every tier against the naive oracle, exactly, over the shapes
// that exercise each panel edge: every row count up to two panels and
// one more, every column count up to two tiles and one more plus
// ResNet18's 49, and one, two and 72 k steps. Both epilogues run: the
// int32 store and the requantize, the latter into a strided output
// whose gaps must stay untouched.
func TestKernelTierParityInt8(t *testing.T) {
	forEachInt8Engine(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		ns := []int{49}
		for n := 1; n <= 2*int8NR+1; n++ {
			ns = append(ns, n)
		}
		for _, kp := range []int{64, 128, 4608} {
			for m := 1; m <= 2*int8MR+1; m++ {
				for _, n := range ns {
					a := randInt8(rng, m*kp)
					b := randUint8(rng, n*kp)
					checkInt8Shape(t, rng, a, b, m, n, kp)
				}
			}
		}
	})
}

// TestGemmInt8OverflowBound runs the largest kp the engine accepts with
// every product at its extreme, -127·255: the sums sit just inside
// int32 and must come out exact on every tier and engine.
func TestGemmInt8OverflowBound(t *testing.T) {
	forEachInt8Engine(t, func(t *testing.T) {
		const m, n, kp = 5, 5, int8MaxKP
		a := make([]int8, m*kp)
		b := make([]uint8, n*kp)
		for i := range a {
			a[i] = -127
		}
		for i := range b {
			b[i] = 255
		}
		checkInt8Shape(t, rand.New(rand.NewSource(1)), a, b, m, n, kp)
		c := make([]int32, m*n)
		GemmInt8DotInto(c, a, b, m, n, kp)
		if want := int32(-127 * 255 * kp); c[0] != want {
			t.Fatalf("c[0] = %d, want %d", c[0], want)
		}
	})
}

// checkInt8Shape compares both GEMM entry points on one operand pair
// with the oracle.
func checkInt8Shape(t *testing.T, rng *rand.Rand, a []int8, b []uint8, m, n, kp int) {
	t.Helper()
	want := make([]int32, m*n)
	refGemmInt8DotInto(want, a, b, m, n, kp)
	const guard = 8
	got := make([]int32, m*n+guard)
	for i := range got {
		got[i] = -7
	}
	GemmInt8DotInto(got, a, b, m, n, kp)
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("m=%d n=%d kp=%d: c[%d] = %d, want %d", m, n, kp, i, got[i], v)
		}
	}
	for i := m * n; i < len(got); i++ {
		if got[i] != -7 {
			t.Fatalf("m=%d n=%d kp=%d: wrote past the output at %d", m, n, kp, i)
		}
	}

	ldy := n + 3
	rq := Int8Requant{
		WScale: randSlice(rng, m), RowSum: make([]int32, m),
		XScale: rng.Float32(), XZero: int32(rng.Intn(256)), Epilogue: Epilogue{Bias: randSlice(rng, m)},
	}
	for i := range rq.RowSum {
		rq.RowSum[i] = rng.Int31n(1<<16) - 1<<15
	}
	y := make([]float32, m*ldy)
	for i := range y {
		y[i] = 42
	}
	gemmInt8Requant(y, ldy, a, b, m, n, kp, rq)
	for i := 0; i < m; i++ {
		for j := 0; j < ldy; j++ {
			v := float32(42)
			if j < n {
				v = requantRef(want[i*n+j], rq.WScale[i]*rq.XScale, rq.XZero*rq.RowSum[i], rq.Bias[i])
			}
			if g := y[i*ldy+j]; math.Float32bits(g) != math.Float32bits(v) {
				t.Fatalf("m=%d n=%d kp=%d: y[%d][%d] = %g, want %g", m, n, kp, i, j, g, v)
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
			gemmTile(got, ldc, a, lda, b, ldb, k, nr, bias, &gemmPost{})
			for r := 0; r < mr; r += 4 { // the portable tile is 4 rows
				rows := min(4, mr-r)
				tile := make([]float32, 4*ldc)
				ar := make([]float32, 4*lda)
				copy(ar, a[r*lda:(r+rows)*lda])
				var br [4]float32
				copy(br[:], bias[r:r+rows])
				gemmTileGeneric(tile, ldc, ar, lda, b, ldb, k, nr, br[:], &gemmPost{})
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
	y := make([]float32, m*n)
	gemmInt8Requant(y, n, wq, bq, m, n, kp,
		Int8Requant{WScale: wScale, RowSum: rowSum, XScale: aScale, XZero: int32(zp)})
	for i := 0; i < m; i++ {
		row := y[i*n : (i+1)*n]
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
