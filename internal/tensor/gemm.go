package tensor

import (
	"math"
	"runtime"
	"unsafe"

	"adcnn/internal/parallel"
)

// GEMM engine. All three matmul entry points (MatMulInto, MatMulTransA,
// MatMulTransB) and the inference convolution (ConvInto) funnel into one
// row-major C = A·B routine (gemm) that cuts C into MR×NR tiles and hands
// each to the tier's micro-kernel (gemmTile):
//
//   - the kernel holds its tile in registers over the whole of k, seeds
//     row r with bias[r], applies the epilogue's post-ops (folded
//     BatchNorm, residual add, ReLU) and stores once, so C is never
//     zeroed or re-read and a convolution's bias, BatchNorm, shortcut and
//     rectifier cost no pass over memory;
//   - every C element is accumulated in ascending k, one step per k,
//     whichever tile it falls in: a block of C computed alone, on another
//     thread, or as part of a wider product is bit-identical, which is
//     what makes an FDSP tile computed on a node equal the same pixels of
//     the whole-image forward;
//   - A (the weights) is read in place by broadcast, and B row p where it
//     lies, at b + boff[p] from a table of row offsets: p·n for a plain
//     product, and for a convolution the start of tap p's run in the
//     sample's zero-bordered copy, so no column matrix is built. Nothing
//     is packed — no copy of any model, no packing pass per call;
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
// are the property tests' oracle (gemm_ref_test.go).

const (
	// 2·m·k·n below this runs inline: at ~130 GFLOP/s a thread that is about
	// 60 µs of work, and waking a second worker costs some 20 µs of it.
	gemmParallelFlops = 1 << 23

	gemmMaxMR   = 6      // tallest tile of any tier
	gemmMaxTile = 6 * 64 // most elements in a tile of any tier

	// gemmPrefetchRows is how far ahead in k the AVX-512 kernel prefetches
	// B; an offset table carries that many entries past its k.
	gemmPrefetchRows = 9
)

// Epilogue is what a GEMM does to row i of its output besides the
// product, in the register tile before the single store. Bias[i] joins
// the sum (the f32 engine seeds the accumulators with it, the int8
// engine adds it after requantizing); then, in this order, each op
// rounded on its own (never fused):
//
//	y = float32(Scale[i]·y) + Shift[i]   a folded BatchNorm, when Scale != nil
//	y = y + Skip[i·ld + j]               a residual add, when Skip != nil
//	y = max(y, +0)                       a ReLU, when ReLU; NaN and −0 give +0
//
// — bit for bit what a separate pass of each would store. Skip is laid
// out like the output (the same row stride ld). Nil slices skip their
// op; the zero Epilogue is a plain product.
type Epilogue struct {
	Bias         []float32
	Scale, Shift []float32
	Skip         []float32
	ReLU         bool
}

// fits reports whether every slice the epilogue uses covers m rows of
// an output n wide with row stride ld.
func (ep *Epilogue) fits(m, n, ld int) bool {
	return (ep.Bias == nil || len(ep.Bias) >= m) &&
		(ep.Scale == nil || len(ep.Scale) >= m && len(ep.Shift) >= m) &&
		(ep.Skip == nil || m == 0 || len(ep.Skip) >= (m-1)*ld+n)
}

// GemmInto computes C = A·B on raw row-major slices: c[m*n] is
// overwritten with a[m*k]·b[k*n]. It is the slice-level core behind the
// tensor matmul API; hot paths that must not allocate call it directly.
func GemmInto(c, a, b []float32, m, k, n int) { GemmEpilogueInto(c, a, b, m, k, n, Epilogue{}) }

// GemmEpilogueInto is GemmInto with ep applied to every row of C as its
// tile finishes: C = post(bias·1ᵀ + A·B), a layer and what follows it at
// inference in one pass. Skip rows are n apart, like C's. B holds fewer
// than 2³¹ elements.
func GemmEpilogueInto(c, a, b []float32, m, k, n int, ep Epilogue) {
	if len(c) < m*n || len(a) < m*k || len(b) < k*n || !ep.fits(m, n, n) {
		panic("tensor: GemmInto operand shorter than its shape")
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		gemmBiasOnly(c, m, n, ep)
		return
	}
	if int64(k)*int64(n) > math.MaxInt32 {
		panic("tensor: GemmInto B beyond 2³¹ elements")
	}
	buf := GetBuf(k + gemmPrefetchRows)
	boff := offsetsIn(buf)
	for p := range boff {
		boff[p] = int32(min(p, k-1) * n)
	}
	gemm(gemmCall{c: c, a: a, b: b, boff: boff, m: m, k: k, n: n, ep: ep})
	PutBuf(buf)
}

// offsetsIn views buf as a table of B row offsets: the tables ride in
// float scratch, so they come from its pool and need none of their own.
func offsetsIn(buf []float32) []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(buf))), len(buf))
}

// gemmBiasOnly writes C = post(bias·1ᵀ), a product with k = 0: the
// kernels want a first row of A and B.
func gemmBiasOnly(c []float32, m, n int, ep Epilogue) {
	post := gemmPost{scale: ep.Scale, shift: ep.Shift, skip: ep.Skip, ldskip: n, relu: ep.ReLU}
	for i := 0; i < m; i++ {
		row := c[i*n : (i+1)*n]
		clear(row)
		if ep.Bias != nil {
			for j := range row {
				row[j] = ep.Bias[i]
			}
		}
		post.row(i, n).Into(row, row)
	}
}

// gemm runs g, whose c, a, b, boff, m, k ≥ 1, n ≥ 1 and ep are set, over
// the tier's tile grid: the bottom edge, the thread split and the tiles.
func gemm(g gemmCall) {
	m, k, n, a, ep := g.m, g.k, g.n, g.a, g.ep
	g.mr, g.nr = gemmTileShape()
	if r := m % g.mr; r != 0 {
		// The bottom edge is computed as a full tile whose last r rows are
		// the live ones: the last mr rows of every operand, overlapping the
		// tile above, or — when C is shorter than one tile — copies padded
		// on top.
		if m >= g.mr {
			g.edgeA, g.edge = a[(m-g.mr)*k:], ep.from(m-g.mr, n)
		} else {
			buf := GetBuf(g.mr * (k + 3 + n))
			defer PutBuf(buf)
			g.edgeA = padTop(buf, a, g.mr, m, k)
			buf = buf[g.mr*k:]
			g.edge = Epilogue{ReLU: ep.ReLU}
			if ep.Bias != nil {
				g.edge.Bias = padTop(buf, ep.Bias, g.mr, m, 1)
			}
			if ep.Scale != nil {
				g.edge.Scale = padTop(buf[g.mr:], ep.Scale, g.mr, m, 1)
				g.edge.Shift = padTop(buf[2*g.mr:], ep.Shift, g.mr, m, 1)
			}
			if ep.Skip != nil {
				g.edge.Skip = padTop(buf[3*g.mr:], ep.Skip, g.mr, m, n)
			}
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

// from re-bases ep on row i0 of an output n wide: row r of the result
// is row i0+r of ep's.
func (ep Epilogue) from(i0, n int) Epilogue {
	if ep.Bias != nil {
		ep.Bias = ep.Bias[i0:]
	}
	if ep.Scale != nil {
		ep.Scale, ep.Shift = ep.Scale[i0:], ep.Shift[i0:]
	}
	if ep.Skip != nil {
		ep.Skip = ep.Skip[i0*n:]
	}
	return ep
}

// padTop writes into dst mr rows of ld elements whose last m are src's
// and whose others are zero, and returns them.
func padTop(dst, src []float32, mr, m, ld int) []float32 {
	dst = dst[:mr*ld]
	clear(dst[:(mr-m)*ld])
	copy(dst[(mr-m)*ld:], src[:m*ld])
	return dst
}

// gemmCall is one product as its tile loops see it: C (m×n, row
// stride n) = post(bias + A·B) with B row p at b[boff[p]:].
type gemmCall struct {
	c, a, b []float32
	boff    []int32 // k row offsets into b, then gemmPrefetchRows more
	m, k, n int
	ep      Epilogue
	mr, nr  int       // the tier's tile
	edgeA   []float32 // mr rows of A ending with its last m%mr
	edge    Epilogue  // ep for those rows
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
				g.tile(edge[:], g.nr, g.edgeA, &g.edge, 0, j, nr)
				for r := skip; r < g.mr; r++ {
					copy(g.c[(i+r-skip)*g.n+j:][:nr], edge[r*g.nr:])
				}
				continue
			}
			g.tile(g.c[i*g.n+j:], g.n, g.a[i*g.k:], &g.ep, i, j, nr)
		}
	}
}

// tile runs the kernel on the tile at row i, column j of ep's rows,
// nr wide, with A's rows at a and C's at c.
func (g *gemmCall) tile(c []float32, ldc int, a []float32, ep *Epilogue, i, j, nr int) {
	bias := gemmNoBias[:]
	if ep.Bias != nil {
		bias = ep.Bias[i:]
	}
	post := gemmPost{ldskip: g.n, relu: ep.ReLU}
	if ep.Scale != nil {
		post.scale, post.shift = ep.Scale[i:], ep.Shift[i:]
	}
	if ep.Skip != nil {
		post.skip = ep.Skip[i*g.n+j:]
	}
	gemmTile(c, ldc, a, g.k, g.b[j:], g.boff, g.k, nr, bias, &post)
}

// gemmPost is one tile's post-ops as the kernels read them (the assembly
// through go_asm.h offsets, a slice by its data pointer): MR readable
// floats of scale and shift from the tile's first row, or nil; the
// tile's first skip element, rows ldskip apart, or nil; the ReLU.
type gemmPost struct {
	scale, shift []float32
	skip         []float32
	ldskip       int
	relu         bool
}

// row is tile row r's post-ops for the portable kernel, nr wide.
func (p *gemmPost) row(r, nr int) RowPost {
	q := RowPost{Affine: p.scale != nil, ReLU: p.relu}
	if q.Affine {
		q.Scale, q.Shift = p.scale[r], p.shift[r]
	}
	if p.skip != nil {
		q.Skip = p.skip[r*p.ldskip:][:nr]
	}
	return q
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
