package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// forEachInt8Engine runs f on every reachable kernel tier and, on the
// AVX-512 tier, once per int8 engine the host can run.
func forEachInt8Engine(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	forEachTier(t, func(t *testing.T) {
		if CurrentKernelTier() != TierAVX512 {
			f(t)
			return
		}
		defer SetInt8Engine(Int8Engines()[0])
		for _, e := range Int8Engines() {
			if err := SetInt8Engine(e); err != nil {
				t.Fatal(err)
			}
			t.Run(e, f)
		}
	})
}

// TestInt8EnginesBitIdentical holds the AMX, VNNI and portable engines to
// each other bit for bit, and the raw sums to the naive oracle, on both
// entries: every column count from 1 to 33 (short A tiles, the
// overlapping last tile, an odd tile count) and ResNet18's planes 49 to
// 3136; channel counts of one and several whole tiles, a 2×1 C block
// (48, 80) and Linear's 1000; one to 72 k steps and the overflow bound.
// The requantize entry runs each post-op alone and all together, with
// NaN, ±Inf, ±0 and subnormal skips, scales and shifts, into a strided
// output whose gaps must stay untouched. On hosts without AMX it
// compares the engines they have.
func TestInt8EnginesBitIdentical(t *testing.T) {
	engines := Int8Engines()
	if len(engines) < 2 {
		t.Skipf("host runs only the %s int8 engine", engines[0])
	}
	if engines[0] != "amx" {
		t.Logf("no AMX engine on this host (CPU or OS): comparing %v", engines)
	}
	defer SetInt8Engine(engines[0])
	defer SetKernelTier(DetectedKernelTier())
	if err := SetKernelTier(TierAVX512); err != nil {
		t.Fatal(err)
	}
	ns := []int{49, 196, 784, 3136}
	for n := 1; n <= 33; n++ {
		ns = append(ns, n)
	}
	rng := rand.New(rand.NewSource(83))
	for _, kp := range []int{64, 192, 576, 4608, int8MaxKP} {
		for _, m := range []int{16, 48, 64, 80, 1000} {
			for _, n := range ns {
				if m*n*kp > 1<<21 && (m > 16 || kp > 64) {
					continue // keeps the portable engine's share near a second
				}
				checkInt8Engines(t, rng, engines, m, n, kp)
			}
		}
	}
}

// checkInt8Engines runs one shape on every engine and compares.
func checkInt8Engines(t *testing.T, rng *rand.Rand, engines []string, m, n, kp int) {
	t.Helper()
	a, b := randInt8(rng, m*kp), randUint8(rng, n*kp)
	want := make([]int32, m*n)
	refGemmInt8DotInto(want, a, b, m, n, kp)
	ld := n + 3
	rq := Int8Requant{WScale: make([]float32, m), RowSum: make([]int32, m),
		XScale: rng.Float32() + 0.5, XZero: int32(rng.Intn(256)), Epilogue: Epilogue{Bias: make([]float32, m)}}
	for i := 0; i < m; i++ {
		rq.WScale[i] = specialOr(rng, i, 3)
		rq.RowSum[i] = rng.Int31n(1<<16) - 1<<15
		rq.Bias[i] = specialOr(rng, i+6, 5)
	}
	scale, shift, skip := epilogueOperands(rng, m, n, ld)
	cases := append([]struct {
		name               string
		affine, skip, relu bool
	}{{name: "requantize"}}, epilogueCases...)
	var first [][]float32
	for ei, e := range engines {
		if err := SetInt8Engine(e); err != nil {
			t.Fatal(err)
		}
		got := make([]int32, m*n)
		GemmInt8DotInto(got, a, b, m, n, kp)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s m=%d n=%d kp=%d: c[%d] = %d, want %d", e, m, n, kp, i, got[i], want[i])
			}
		}
		w := PackInt8Weights(a, m, kp)
		for ci, c := range cases {
			q := rq
			q.ReLU = c.relu
			if c.affine {
				q.Scale, q.Shift = scale, shift
			}
			if c.skip {
				q.Skip = skip
			}
			y := make([]float32, m*ld)
			for i := range y {
				y[i] = 42
			}
			GemmInt8RequantInto(y, ld, &w, b, n, q)
			if ei == 0 {
				first = append(first, y)
				continue
			}
			for i, v := range y {
				if math.Float32bits(v) != math.Float32bits(first[ci][i]) {
					t.Fatalf("%s %s m=%d n=%d kp=%d: y[%d][%d] = %g (%#08x), %s gave %g (%#08x)",
						e, c.name, m, n, kp, i/ld, i%ld, v, math.Float32bits(v), engines[0], first[ci][i], math.Float32bits(first[ci][i]))
				}
			}
		}
	}
}
