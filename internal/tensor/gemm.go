package tensor

import (
	"runtime"

	"adcnn/internal/parallel"
)

// GEMM engine. All three matmul entry points (MatMulInto, MatMulTransA,
// MatMulTransB) funnel into one row-major C = A·B driver that cuts C into
// MR×NR tiles and hands each to the tier's micro-kernel (gemmTile):
//
//   - the kernel holds its tile in registers over the whole of k, seeds
//     row r with bias[r] and stores once, so C is never zeroed or re-read
//     and a convolution's bias costs nothing;
//   - every C element is accumulated in ascending k, one step per k,
//     whichever tile it falls in: a block of C computed alone, on another
//     thread, or as part of a wider product is bit-identical, which is
//     what makes an FDSP tile computed on a node equal the same pixels of
//     the whole-image forward;
//   - both operands are read in place, A (the weights) by broadcast and B
//     by rows — no packed copy of any model, no packing pass per call;
//   - the kernel takes any tile width up to NR; only a bottom edge of
//     fewer than MR rows is special: it is computed as the full tile that
//     ends at A's last row, into a stack tile whose live rows are copied
//     out (the rows it shares with the tile above come out identical and
//     are dropped);
//   - transposed operands are repacked into scratch from the buffer pool
//     (GetBuf/PutBuf) so both GEMM inputs stream contiguously.
//
// Tiles are scheduled over goroutines with parallel.ForChunked, by column
// panels when there are enough of them and by tile rows otherwise; a flop
// threshold keeps small products inline. The pre-engine serial kernels
// are retained verbatim as RefMatMulInto / RefMatMulTransA /
// RefMatMulTransB — they are the oracle for the property tests and the
// baseline for the kernel benchmarks.

const (
	// 2·m·k·n below this runs inline: at ~130 GFLOP/s a thread that is about
	// 60 µs of work, and waking a second worker costs some 20 µs of it.
	gemmParallelFlops = 1 << 23

	gemmMaxMR   = 6      // tallest tile of any tier
	gemmMaxTile = 6 * 64 // most elements in a tile of any tier
)

// GemmInto computes C = A·B on raw row-major slices: c[m*n] is
// overwritten with a[m*k]·b[k*n]. It is the slice-level core behind the
// tensor matmul API; hot paths that must not allocate call it directly.
func GemmInto(c, a, b []float32, m, k, n int) { GemmBiasInto(c, a, b, nil, m, k, n) }

// GemmBiasInto is GemmInto with row i of C seeded with bias[i] (a
// convolution's per-output-channel bias): C = bias·1ᵀ + A·B. A nil bias
// is zero.
func GemmBiasInto(c, a, b, bias []float32, m, k, n int) {
	if len(c) < m*n || len(a) < m*k || len(b) < k*n || (bias != nil && len(bias) < m) {
		panic("tensor: GemmInto operand shorter than its shape")
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 { // C = bias·1ᵀ; the kernels want a first row of A and B
		for i := range c[:m*n] {
			c[i] = 0
			if bias != nil {
				c[i] = bias[i/n]
			}
		}
		return
	}
	g := gemmCall{c: c, a: a, b: b, bias: bias, m: m, k: k, n: n}
	g.mr, g.nr = gemmTileShape()
	if r := m % g.mr; r != 0 {
		// The bottom edge is computed as a full tile whose last r rows are
		// the live ones: the last mr rows of A, overlapping the tile above,
		// or — when A is shorter than one tile — a copy padded on top.
		if m >= g.mr {
			g.edgeA = a[(m-g.mr)*k:]
		} else {
			g.edgeA = GetBuf(g.mr * k)
			defer PutBuf(g.edgeA)
			clear(g.edgeA[:(g.mr-r)*k])
			copy(g.edgeA[(g.mr-r)*k:], a[:m*k])
		}
		if bias != nil {
			copy(g.edgeBias[g.mr-r:], bias[m-r:m])
		}
	}
	tm, tn := (m+g.mr-1)/g.mr, (n+g.nr-1)/g.nr
	workers := runtime.GOMAXPROCS(0)
	if 2*int64(m)*int64(k)*int64(n) < gemmParallelFlops || workers <= 1 || max(tm, tn) < 2 {
		g.run(0, tm, 0, tn)
		return
	}
	// Four chunks per worker, so one whose core has slowed down takes fewer
	// of them. Chunks of columns when there is a panel for each: they read
	// B once between them, where every chunk of rows reads all of it. Only
	// this branch lets the call record escape to the heap.
	pg := g
	if chunks := 4 * workers; tn >= chunks || tm < 2 {
		parallel.ForChunked(tn, (tn+chunks-1)/chunks, func(lo, hi int) { pg.run(0, tm, lo, hi) })
	} else {
		parallel.ForChunked(tm, (tm+chunks-1)/chunks, func(lo, hi int) { pg.run(lo, hi, 0, tn) })
	}
}

// gemmCall is one GemmBiasInto call as its tile loops see it.
type gemmCall struct {
	c, a, b, bias []float32
	m, k, n       int
	mr, nr        int                // the tier's tile
	edgeA         []float32          // mr rows of A ending with its last m%mr
	edgeBias      [gemmMaxMR]float32 // bias for those rows; the live ones are set
}

var gemmNoBias [gemmMaxMR]float32

// run computes the tiles in rows [ti0,ti1) × columns [tj0,tj1) of the
// tile grid, one column panel of B at a time: the panel is re-read once
// per tile row, A once per panel, and a panel is the narrower of the two.
func (g *gemmCall) run(ti0, ti1, tj0, tj1 int) {
	var edge [gemmMaxTile]float32
	for tj := tj0; tj < tj1; tj++ {
		j := tj * g.nr
		nr := min(g.nr, g.n-j)
		for ti := ti0; ti < ti1; ti++ {
			i := ti * g.mr
			if skip := i + g.mr - g.m; skip > 0 {
				gemmTile(edge[:], g.nr, g.edgeA, g.k, g.b[j:], g.n, g.k, nr, g.edgeBias[:])
				for r := skip; r < g.mr; r++ {
					copy(g.c[(i+r-skip)*g.n+j:][:nr], edge[r*g.nr:])
				}
				continue
			}
			bias := gemmNoBias[:]
			if g.bias != nil {
				bias = g.bias[i:]
			}
			gemmTile(g.c[i*g.n+j:], g.n, g.a[i*g.k:], g.k, g.b[j:], g.n, g.k, nr, bias)
		}
	}
}

// GemmTransBInto computes C = A·Bᵀ on raw slices: a is [m,k] row-major,
// b is [n,k] row-major, c receives [m,n]. Small m stays in a dot-product
// kernel (both operands already stream contiguously and a transpose would
// double the memory traffic); larger products repack Bᵀ into pooled
// scratch and reuse the engine.
func GemmTransBInto(c, a, b []float32, m, k, n int) {
	if len(c) < m*n || len(a) < m*k || len(b) < n*k {
		panic("tensor: GemmTransBInto operand shorter than its shape")
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		for i := range c[:m*n] {
			c[i] = 0
		}
		return
	}
	if m <= 8 {
		dotRows(c, a, b, 0, m, k, n)
		return
	}
	bt := GetBuf(k * n)
	transposeInto(bt, b, n, k)
	GemmInto(c, a, bt, m, k, n)
	PutBuf(bt)
}

// dotRows computes C[lo:hi] = A[lo:hi]·Bᵀ with four independent
// accumulator chains per A row (j unrolled by 4).
func dotRows(c, a, b []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var s0, s1, s2, s3 float32
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			crow[j+0] = s0
			crow[j+1] = s1
			crow[j+2] = s2
			crow[j+3] = s3
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			var s float32
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] = s
		}
	}
}

// GemmTransAInto computes C = Aᵀ·B on raw slices: a is [k,m] row-major,
// b is [k,n] row-major, c receives [m,n]. A is repacked transposed into
// pooled scratch (cost m·k, negligible against 2·m·k·n) and the blocked
// engine does the rest.
func GemmTransAInto(c, a, b []float32, m, k, n int) {
	if len(c) < m*n || len(a) < k*m || len(b) < k*n {
		panic("tensor: GemmTransAInto operand shorter than its shape")
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		for i := range c[:m*n] {
			c[i] = 0
		}
		return
	}
	at := GetBuf(m * k)
	transposeInto(at, a, k, m)
	GemmInto(c, at, b, m, k, n)
	PutBuf(at)
}

// transposeInto writes src (r×c row-major) into dst as its c×r transpose,
// tiled so both sides stay within a few cache lines per step.
func transposeInto(dst, src []float32, r, c int) {
	const tb = 32
	for i0 := 0; i0 < r; i0 += tb {
		i1 := min(i0+tb, r)
		for j0 := 0; j0 < c; j0 += tb {
			j1 := min(j0+tb, c)
			for i := i0; i < i1; i++ {
				srow := src[i*c : i*c+c]
				for j := j0; j < j1; j++ {
					dst[j*r+i] = srow[j]
				}
			}
		}
	}
}

// ---- Retained naive reference kernels ----------------------------------
//
// These are the pre-engine serial implementations, kept as the correctness
// oracle for the GEMM property tests and as the baseline the kernel
// benchmarks measure speedups against. Do not optimise them.

// RefMatMulInto is the reference C = A·B (axpy order, serial).
func RefMatMulInto(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c.Zero()
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// RefMatMulTransA is the reference C = Aᵀ·B (serial).
func RefMatMulTransA(a, b *Tensor) *Tensor {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := c.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// RefMatMulTransB is the reference C = A·Bᵀ (serial dot products).
func RefMatMulTransB(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float32
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] = s
		}
	}
	return c
}
