package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// epilogueCases are the post-op sets the epilogue property test runs:
// each op alone, then all three.
var epilogueCases = []struct {
	name               string
	affine, skip, relu bool
}{
	{"batchnorm", true, false, false},
	{"skip", false, true, false},
	{"relu", false, false, true},
	{"all", true, true, true},
}

// epilogueSpecials are the values the post-ops must carry exactly:
// NaN, the infinities, both zeros and subnormals of both signs.
var epilogueSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)), 0, 1e-45, -1e-45, 3e-39, -2e-39,
}

// specialOr returns the i-th special value on every stride-th call
// index, and a normal random value otherwise.
func specialOr(rng *rand.Rand, i, stride int) float32 {
	if i%stride == 0 {
		return epilogueSpecials[(i/stride)%len(epilogueSpecials)]
	}
	return rng.Float32()*4 - 2
}

// refPost is what the three passes the epilogue replaces leave in one
// element: BatchNorm's float32(scale·y) + shift, Tensor.Add's y + skip,
// and ReLU's "keep v when its bits lie in [1, +Inf's]".
func refPost(y float32, affine bool, scale, shift float32, skip *float32, relu bool) float32 {
	if affine {
		y = float32(scale*y) + shift
	}
	if skip != nil {
		y += *skip
	}
	if relu {
		if u := math.Float32bits(y); u-1 >= 0x7F800000 {
			y = 0
		}
	}
	return y
}

// sameValue is bit equality with every NaN one value: which NaN an op
// returns when both operands are NaN is the compiler's choice of operand
// order, not the epilogue's.
func sameValue(a, b float32) bool {
	if a != a && b != b {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// epilogueOperands draws the per-row and skip operands of an epilogue
// over m rows of an output n wide with row stride ld.
func epilogueOperands(rng *rand.Rand, m, n, ld int) (scale, shift, skip []float32) {
	scale, shift, skip = make([]float32, m), make([]float32, m), make([]float32, (m-1)*ld+n)
	for i := range scale {
		scale[i] = specialOr(rng, i+3, 5)
		shift[i] = specialOr(rng, i+1, 4)
	}
	for i := range skip {
		skip[i] = specialOr(rng, i, 7)
	}
	return scale, shift, skip
}

// checkEpilogue compares a fused output with the plain one followed by
// refPost, row stride ld, and checks that the gaps and the tail past the
// last row are untouched.
func checkEpilogue(t *testing.T, what string, got, plain []float32, m, n, ld int, ep Epilogue) {
	t.Helper()
	for i := 0; i < m; i++ {
		for j := 0; j < ld; j++ {
			idx := i*ld + j
			want := plain[idx]
			if j < n {
				var skip *float32
				if ep.Skip != nil {
					skip = &ep.Skip[idx]
				}
				var sc, sh float32
				if ep.Scale != nil {
					sc, sh = ep.Scale[i], ep.Shift[i]
				}
				want = refPost(want, ep.Scale != nil, sc, sh, skip, ep.ReLU)
			}
			if !sameValue(got[idx], want) {
				t.Fatalf("%s m=%d n=%d: y[%d][%d] = %g (%#08x), want %g (%#08x)",
					what, m, n, i, j, got[idx], math.Float32bits(got[idx]), want, math.Float32bits(want))
			}
		}
	}
	for i := m * ld; i < len(got); i++ {
		if !sameValue(got[i], plain[i]) {
			t.Fatalf("%s m=%d n=%d: wrote past the output at %d", what, m, n, i)
		}
	}
}

// TestGemmEpilogueMatchesUnfused holds the fused post-ops of both GEMM
// engines, on every reachable tier, to the plain kernel followed by
// the passes they replace, bit for bit: every row count up to 13 (each
// bottom-edge class of both tile heights, and products shorter than one
// tile), widths either side of 16 and 64, k from 0 (f32) or one k step
// (int8) up, each op alone and all three, with accumulators and skips
// holding NaN, ±Inf, ±0 and subnormals — and across the parallel
// threshold.
func TestGemmEpilogueMatchesUnfused(t *testing.T) {
	ns := []int{1, 3, 15, 16, 17, 63, 64, 65}
	forEachInt8Engine(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(71))
		f32 := func(m, k, n int) {
			t.Helper()
			a, b := make([]float32, m*k), make([]float32, k*n)
			for i := range a {
				a[i] = specialOr(rng, i+1, 97)
				if (i/max(k, 1))%4 == 1 { // zero rows: the sum keeps the seed's sign
					a[i] = 0
				}
			}
			for i := range b {
				b[i] = specialOr(rng, i+2, 89)
				if i%n%5 == 0 { // negative columns: 0·b is −0
					b[i] = -float32(math.Abs(float64(b[i])))
				}
			}
			bias := make([]float32, m) // the zero rows get −0, +Inf, subnormals
			for i := range bias {
				bias[i] = specialOr(rng, i+1, 2)
			}
			plain := randSlice(rng, m*n+5)
			GemmEpilogueInto(plain, a, b, m, k, n, Epilogue{Bias: bias})
			scale, shift, skip := epilogueOperands(rng, m, n, n)
			for _, c := range epilogueCases {
				ep := Epilogue{Bias: bias, ReLU: c.relu}
				if c.affine {
					ep.Scale, ep.Shift = scale, shift
				}
				if c.skip {
					ep.Skip = skip
				}
				got := append([]float32(nil), plain...)
				GemmEpilogueInto(got, a, b, m, k, n, ep)
				checkEpilogue(t, "f32 "+c.name, got, plain, m, n, n, ep)
			}
		}
		int8 := func(m, n, kp int) {
			t.Helper()
			a, b := randInt8(rng, m*kp), randUint8(rng, n*kp)
			ld := n + 3
			rq := Int8Requant{WScale: make([]float32, m), RowSum: make([]int32, m),
				XScale: rng.Float32() + 0.5, XZero: int32(rng.Intn(256))}
			rq.Bias = make([]float32, m)
			for i := 0; i < m; i++ { // rows 6 and 8: ±0·acc, then −0 or a subnormal
				rq.WScale[i] = specialOr(rng, i, 2)
				rq.RowSum[i] = rng.Int31n(1<<16) - 1<<15
				rq.Bias[i] = specialOr(rng, i+6, 1)
			}
			plain := randSlice(rng, m*ld+5)
			gemmInt8Requant(plain, ld, a, b, m, n, kp, rq)
			scale, shift, skip := epilogueOperands(rng, m, n, ld)
			for _, c := range epilogueCases {
				q := rq
				q.ReLU = c.relu
				if c.affine {
					q.Scale, q.Shift = scale, shift
				}
				if c.skip {
					q.Skip = skip
				}
				got := append([]float32(nil), plain...)
				gemmInt8Requant(got, ld, a, b, m, n, kp, q)
				checkEpilogue(t, "int8 "+c.name, got, plain, m, n, ld, q.Epilogue)
			}
		}
		for m := 1; m <= 13; m++ {
			for _, n := range ns {
				for _, k := range []int{0, 1, 5, 37} {
					f32(m, k, n)
				}
				for _, kp := range []int{64, 128} {
					int8(m, n, kp)
				}
			}
		}
		old := runtime.GOMAXPROCS(3)
		defer runtime.GOMAXPROCS(old)
		f32(64, 256, 255)
		f32(13, 1100, 800)
		int8(64, 256, 128)
	})
}
