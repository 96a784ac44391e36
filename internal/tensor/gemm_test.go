package tensor

import (
	"math/rand"
	"runtime"
	"testing"
)

// maxAbsDiff returns the largest elementwise |a-b|.
func maxAbsDiff(t *testing.T, got, want *Tensor) float64 {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape mismatch: got %v, want %v", got.Shape, want.Shape)
	}
	var m float64
	for i, v := range got.Data {
		d := float64(v - want.Data[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// gemmTol is the accumulated-rounding tolerance for float32 products with
// operands in [-1,1]: proportional to the reduction depth.
func gemmTol(k int) float64 { return 1e-6 * float64(k+1) * 8 }

func randMat(rng *rand.Rand, r, c int) *Tensor {
	t := New(r, c)
	t.RandU(rng, -1, 1)
	return t
}

// TestGemmMatchesReference is the engine-vs-naive property test: all
// three matmul entry points must agree with the retained reference
// kernels on randomized shapes, including shapes not divisible by any
// tier's tile, shapes with zero-size edges, and shapes past the parallel
// threshold. (gemm_prop_test.go sweeps the tile residues exhaustively.)
func TestGemmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		// zero-size edges
		{0, 5, 7}, {5, 0, 7}, {5, 7, 0}, {0, 0, 0},
		// minimal and remainder-heavy shapes
		{1, 1, 1}, {3, 3, 3}, {5, 6, 7}, {4, 4, 4}, {7, 9, 11},
		// dot-path (m <= 8) and just past it for TransB
		{8, 33, 17}, {9, 33, 17},
		// tile remainders around multiples of 4
		{13, 21, 19}, {16, 20, 24}, {17, 21, 25},
		// around powers of two in k and n
		{6, 127, 30}, {6, 128, 30}, {6, 129, 30},
		{5, 40, 511}, {5, 40, 512}, {5, 40, 513},
		{12, 130, 515},
		// large enough to cross the parallel threshold
		{64, 512, 130}, {130, 256, 140},
	}
	for i := 0; i < 25; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(150), 1 + rng.Intn(90)})
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		tol := gemmTol(k)

		got := New(m, n)
		got.Fill(42) // stale contents must be overwritten
		MatMulInto(got, a, b)
		want := New(m, n)
		RefMatMulInto(want, a, b)
		if d := maxAbsDiff(t, got, want); d > tol {
			t.Errorf("MatMulInto (%d,%d,%d): max |diff| = %g > %g", m, k, n, d, tol)
		}

		at := randMat(rng, k, m) // A stored transposed: [k,m]
		gotTA := MatMulTransA(at, b)
		wantTA := RefMatMulTransA(at, b)
		if d := maxAbsDiff(t, gotTA, wantTA); d > tol {
			t.Errorf("MatMulTransA (%d,%d,%d): max |diff| = %g > %g", m, k, n, d, tol)
		}

		bt := randMat(rng, n, k) // B stored transposed: [n,k]
		gotTB := MatMulTransB(a, bt)
		wantTB := RefMatMulTransB(a, bt)
		if d := maxAbsDiff(t, gotTB, wantTB); d > tol {
			t.Errorf("MatMulTransB (%d,%d,%d): max |diff| = %g > %g", m, k, n, d, tol)
		}
	}
}

// TestGemmParallelMatchesSerial forces multi-worker scheduling (the CI
// box may expose a single CPU, where GemmInto would otherwise always run
// inline) and checks the chunked row decomposition against the reference.
func TestGemmParallelMatchesSerial(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(13))
	for _, s := range [][3]int{{97, 300, 160}, {128, 256, 160}, {41, 900, 130}} {
		m, k, n := s[0], s[1], s[2]
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		got := New(m, n)
		MatMulInto(got, a, b)
		want := New(m, n)
		RefMatMulInto(want, a, b)
		if d := maxAbsDiff(t, got, want); d > gemmTol(k) {
			t.Errorf("parallel MatMulInto (%d,%d,%d): max |diff| = %g", m, k, n, d)
		}
	}
}

// TestGemmIntoSliceLevel exercises the raw-slice entry points directly,
// including operands longer than their logical shape (pooled buffers are
// usually oversized).
func TestGemmIntoSliceLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, k, n := 10, 23, 14
	a := randMat(rng, m, k)
	b := randMat(rng, k, n)
	want := New(m, n)
	RefMatMulInto(want, a, b)

	cbuf := make([]float32, m*n+13) // oversized, with poison tail
	for i := range cbuf {
		cbuf[i] = -99
	}
	abuf := append(append([]float32(nil), a.Data...), 7, 7, 7)
	bbuf := append(append([]float32(nil), b.Data...), 5, 5)
	GemmInto(cbuf, abuf, bbuf, m, k, n)
	for i := 0; i < m*n; i++ {
		d := float64(cbuf[i] - want.Data[i])
		if d < 0 {
			d = -d
		}
		if d > gemmTol(k) {
			t.Fatalf("GemmInto[%d] = %g, want %g", i, cbuf[i], want.Data[i])
		}
	}
	for i := m * n; i < len(cbuf); i++ {
		if cbuf[i] != -99 {
			t.Fatalf("GemmInto wrote past m*n at %d", i)
		}
	}
}

func TestGemmIntoPanicsOnShortOperands(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on short C")
		}
	}()
	GemmInto(make([]float32, 3), make([]float32, 4), make([]float32, 4), 2, 2, 2)
}

func TestMatMulUnchangedAPI(t *testing.T) {
	// MatMul still allocates and matches the references end to end.
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 17, 29)
	b := randMat(rng, 29, 13)
	want := New(17, 13)
	RefMatMulInto(want, a, b)
	if d := maxAbsDiff(t, MatMul(a, b), want); d > gemmTol(29) {
		t.Fatalf("MatMul diverges from reference by %g", d)
	}
}

func TestIm2ColIntoMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	geoms := []ConvGeom{
		{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 0, PadW: 0},
		{KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		{KH: 5, KW: 3, StrideH: 2, StrideW: 1, PadH: 2, PadW: 1},
	}
	for _, g := range geoms {
		x := New(3, 11, 9)
		x.RandU(rng, -1, 1)
		want := Im2Col(x, g)
		got := New(want.Shape...)
		got.Fill(-7) // stale pool contents must not leak through
		Im2ColInto(got, x, g)
		if !got.Equal(want, 0) {
			t.Errorf("Im2ColInto differs from Im2Col for geom %+v", g)
		}

		cols := want
		wantImg := Col2Im(cols, 3, 11, 9, g)
		gotImg := New(3, 11, 9)
		gotImg.Fill(13)
		Col2ImInto(gotImg, cols, g)
		if !gotImg.Equal(wantImg, 0) {
			t.Errorf("Col2ImInto differs from Col2Im for geom %+v", g)
		}
	}
}
