package tensor

import (
	"runtime"
	"unsafe"

	"adcnn/internal/parallel"
)

// Int8 GEMM engine. The quantized inference path multiplies per-channel
// int8 weights against uint8 affine-quantized activations, accumulating
// exactly in int32 and requantizing back to float32. Both operands are
// packed dot-product style so every k sweep is two contiguous byte
// streams:
//
//	A: [m][kp] int8  — weight rows, zero-padded from k to kp
//	B: [n][kp] uint8 — activation columns (transposed im2col), the
//	                   k..kp-1 tail zero-filled
//	acc[i][j] = Σ_k a[i][k]·b[j][k]
//
// kp is k rounded up to a multiple of int8KStep. Because the A pad is
// zero the B pad value never matters, but packers zero it anyway to keep
// buffers deterministic.
//
// One micro-kernel computes an int8MR×int8NR tile of acc — one vector
// accumulator per (row, column) pair over the whole of kp — and loops
// over every column of B inside, so a call handles an int8MR-row panel.
// It finishes each tile while it is still in registers, either storing
// the int32 sums (GemmInt8DotInto) or requantizing them straight into
// the f32 output and running the Epilogue's post-ops on them
// (GemmInt8RequantInto), so no m×n int32 matrix is ever written. Edges
// are never a scalar loop: rows past m alias the last live row (same
// inputs, same output address, same value), columns past n alias the
// last live column and are masked off at the store.

const (
	// int8KStep is the k granularity of the packed operands.
	int8KStep = 16
	// int8MaxKP bounds kp so the int32 accumulator cannot overflow:
	// each product is at most 128·255, so |acc| ≤ kp·32640 must stay
	// below 2^31.
	int8MaxKP = 65776
	// int8MR×int8NR is the register tile of the micro-kernels.
	int8MR = 4
	int8NR = 4
	// int8BlockBytes caps the B columns one pass over the row panels
	// reads, so that block stays in L2 while every panel reuses it.
	int8BlockBytes = 256 << 10
	// int8ParallelMACs: m·n·kp below this runs inline.
	int8ParallelMACs = 1 << 20
)

// Int8KP returns k rounded up to the packing granularity of the int8
// GEMM operands.
func Int8KP(k int) int { return (k + int8KStep - 1) &^ (int8KStep - 1) }

// Int8Requant is the per-row epilogue GemmInt8RequantInto applies to the
// exact int32 sums: row i of the output is
//
//	y = (WScale[i]·XScale)·float32(acc − XZero·RowSum[i]) + Bias[i]
//
// — the weight channel scale times the activation scale, and the
// zero-point correction unfolded through the weight row sums — and then
// the Epilogue's post-ops on y, its Skip rows ldy apart like the
// output's. Each multiply and add is rounded on its own (never fused),
// so the result does not depend on the kernel that computed it.
type Int8Requant struct {
	WScale []float32 // per output row
	RowSum []int32   // per output row: Σ_k of the int8 weights
	XScale float32
	XZero  int32
	Epilogue
}

// GemmInt8DotInto computes C = A·Bᵀ over the packed int8 layout above:
// c[i*n+j] = Σ_k a[i*kp+k]·b[j*kp+k], exact int32 arithmetic. kp must be
// a positive multiple of int8KStep and at most int8MaxKP.
func GemmInt8DotInto(c []int32, a []int8, b []uint8, m, n, kp int) {
	if len(c) < m*n {
		panic("tensor: GemmInt8DotInto operand shorter than its shape")
	}
	g := int8Call{a: a, b: b, m: m, n: n, kp: kp, ldc: n, raw: true,
		c: unsafe.Pointer(unsafe.SliceData(c))}
	g.run()
}

// GemmInt8RequantInto computes the int8 product and requantizes it
// through rq into y: y[i*ldy+j] is rq's epilogue applied to
// Σ_k a[i*kp+k]·b[j*kp+k]. Same operand contract as GemmInt8DotInto;
// ldy ≥ n.
func GemmInt8RequantInto(y []float32, ldy int, a []int8, b []uint8, m, n, kp int, rq Int8Requant) {
	if m > 0 && n > 0 && (ldy < n || len(y) < (m-1)*ldy+n) ||
		len(rq.WScale) < m || len(rq.RowSum) < m || !rq.fits(m, n, ldy) {
		panic("tensor: GemmInt8RequantInto operand shorter than its shape")
	}
	g := int8Call{a: a, b: b, m: m, n: n, kp: kp, ldc: ldy, rq: rq,
		c: unsafe.Pointer(unsafe.SliceData(y))}
	g.run()
}

func checkInt8Operands(a []int8, b []uint8, m, n, kp int) {
	if kp <= 0 || kp%int8KStep != 0 || kp > int8MaxKP {
		panic("tensor: int8 GEMM kp must be a multiple of 16 in (0, 65776]")
	}
	if len(a) < m*kp || len(b) < n*kp {
		panic("tensor: int8 GEMM operand shorter than its shape")
	}
}

// int8Call is one int8 GEMM call as its panel loop sees it. c points at
// element [0][0] of the output — int32 when raw, float32 otherwise —
// whose rows are ldc elements apart.
type int8Call struct {
	a        []int8
	b        []uint8
	m, n, kp int
	c        unsafe.Pointer
	ldc      int
	raw      bool
	rq       Int8Requant
}

func (g *int8Call) run() {
	checkInt8Operands(g.a, g.b, g.m, g.n, g.kp)
	if g.m == 0 || g.n == 0 {
		return
	}
	tm := (g.m + int8MR - 1) / int8MR
	workers := runtime.GOMAXPROCS(0)
	if int64(g.m)*int64(g.n)*int64(g.kp) < int8ParallelMACs || workers <= 1 || tm < 2 {
		g.panels(0, tm)
		return
	}
	// Four chunks of row panels per worker, so one whose core has slowed
	// down takes fewer of them. The method value copies the call into
	// its closure: one allocation, on this branch only.
	chunks := 4 * workers
	parallel.ForChunked(tm, (tm+chunks-1)/chunks, g.panels)
}

// panels computes row panels [p0, p1), one L2-sized block of B columns
// at a time: the block is re-read once per panel, a panel's A rows once
// per block.
func (g int8Call) panels(p0, p1 int) {
	var p int8Panel
	p.kp = g.kp
	p.raw = g.raw
	esz := uintptr(4) // int32 and float32 alike
	block := max(int8NR, int8BlockBytes/g.kp&^(int8NR-1))
	p.affine = g.rq.Scale != nil
	p.relu = g.rq.ReLU
	for j0 := 0; j0 < g.n; j0 += block {
		p.n = min(block, g.n-j0)
		p.b = &g.b[j0*g.kp]
		for pi := p0; pi < p1; pi++ {
			for r := 0; r < int8MR; r++ {
				i := min(pi*int8MR+r, g.m-1)
				p.a[r] = &g.a[i*g.kp]
				p.c[r] = unsafe.Add(g.c, uintptr(i*g.ldc+j0)*esz)
				if !g.raw {
					p.setRow(r, i, j0, g.ldc, &g.rq)
				}
			}
			int8Kernel(&p)
		}
	}
}

// int8Panel is one micro-kernel call: int8MR weight rows against n
// activation columns starting at b, the columns kp bytes apart. Output
// row r starts at c[r] (int32 when raw, float32 otherwise); a
// requantized element is scale[r]·float32(acc − corr[r]) + bias[r], then
// float32(postScale[r]·y) + postShift[r] when affine, y + the element at
// skip[r] (the same column; all nil when there is no skip), and
// max(y, +0) when relu. The assembly kernel reads this struct through
// go_asm.h offsets.
type int8Panel struct {
	a         [int8MR]*int8
	c         [int8MR]unsafe.Pointer
	skip      [int8MR]unsafe.Pointer
	corr      [int8MR]int32
	scale     [int8MR]float32
	bias      [int8MR]float32
	postScale [int8MR]float32
	postShift [int8MR]float32
	b         *uint8
	n         int
	kp        int
	raw       bool
	affine    bool
	relu      bool
}

// setRow loads panel row r with output row i's requantize and post-ops
// for the block of columns from j0, in an output ld wide.
func (p *int8Panel) setRow(r, i, j0, ld int, rq *Int8Requant) {
	p.scale[r] = rq.WScale[i] * rq.XScale
	p.corr[r] = rq.XZero * rq.RowSum[i]
	p.bias[r] = 0
	if rq.Bias != nil {
		p.bias[r] = rq.Bias[i]
	}
	if rq.Scale != nil {
		p.postScale[r], p.postShift[r] = rq.Scale[i], rq.Shift[i]
	}
	if rq.Skip != nil {
		p.skip[r] = unsafe.Pointer(&rq.Skip[i*ld+j0])
	}
}

// int8PanelGeneric is the portable micro-kernel, compiled on every
// platform: the assembly kernel's int8MR×int8NR tile and edge rules in
// Go, bit-identical to it.
func int8PanelGeneric(p *int8Panel) {
	kp := p.kp
	var a [int8MR][]int8
	for r := range a {
		a[r] = unsafe.Slice(p.a[r], kp)
	}
	bAll := unsafe.Slice(p.b, p.n*kp)
	for j := 0; j < p.n; j += int8NR {
		var bc [int8NR][]uint8
		for c := range bc {
			jc := min(j+c, p.n-1)
			bc[c] = bAll[jc*kp : (jc+1)*kp]
		}
		var acc [int8MR][int8NR]int32
		for k := 0; k < kp; k++ {
			b0, b1, b2, b3 := int32(bc[0][k]), int32(bc[1][k]), int32(bc[2][k]), int32(bc[3][k])
			for r := range acc {
				av := int32(a[r][k])
				acc[r][0] += av * b0
				acc[r][1] += av * b1
				acc[r][2] += av * b2
				acc[r][3] += av * b3
			}
		}
		live := min(int8NR, p.n-j)
		for r := range acc {
			if p.raw {
				copy(unsafe.Slice((*int32)(p.c[r]), p.n)[j:j+live], acc[r][:live])
				continue
			}
			y := unsafe.Slice((*float32)(p.c[r]), p.n)[j : j+live]
			for c := range y {
				y[c] = float32(p.scale[r]*float32(acc[r][c]-p.corr[r])) + p.bias[r]
			}
			post := rowPost{affine: p.affine, scale: p.postScale[r], shift: p.postShift[r], relu: p.relu}
			if p.skip[r] != nil {
				post.skip = unsafe.Slice((*float32)(p.skip[r]), p.n)[j : j+live]
			}
			post.apply(y)
		}
	}
}

// RefGemmInt8DotInto is the retained naive oracle for GemmInt8DotInto:
// same contract, scalar triple loop.
func RefGemmInt8DotInto(c []int32, a []int8, b []uint8, m, n, kp int) {
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
