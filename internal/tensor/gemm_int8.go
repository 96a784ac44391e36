package tensor

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"unsafe"

	"adcnn/internal/parallel"
)

// Int8 GEMM engine. The quantized inference path multiplies per-channel
// int8 weights against uint8 affine-quantized activations, accumulating
// exactly in int32 and requantizing back to float32:
//
//	A: m weight rows of kp int8 codes, zero-padded from k to kp, held
//	   as Int8Weights in the layout the engine reads
//	B: [n][kp] uint8 — activation columns (transposed im2col), the
//	   k..kp-1 tail zero-filled
//	acc[i][j] = Σ_k a[i][k]·b[j][k]
//
// kp is k rounded up to a multiple of int8KStep, 64 bytes: one VNNI k
// step, and one row of an AMX tile. Because the A pad is zero the B pad
// value never matters, but packers zero it anyway to keep buffers
// deterministic.
//
// Three engines compute it, bit-identically, and a call runs the fastest
// the host has (Int8Engine):
//
//   - amx: the matrix engine (gemm_int8_amx_amd64.s). The activation
//     rows are its A tiles as they lie, the weights its B tiles, laid out
//     once by NewInt8Weights; 16×16 int32 C tiles come out transposed
//     and an AVX-512 epilogue finishes them.
//   - vnni: an int8MR×int8NR register tile of VPDPBUSD accumulators per
//     (row, column) pair over the whole of kp, looping over every column
//     of B inside, so a call handles an int8MR-row panel
//     (gemm_int8_kernel_amd64.s).
//   - generic: that panel kernel in Go, on every other host.
//
// Every engine finishes its tile while it is still in registers (or, for
// amx, in a tile-sized scratch): either storing the int32 sums
// (GemmInt8DotInto) or requantizing them straight into the f32 output
// and running the Epilogue's post-ops on them (GemmInt8RequantInto), so
// no m×n int32 matrix is ever written. Edges are never a scalar loop.

const (
	// int8KStep is the k granularity of the packed operands.
	int8KStep = 64
	// int8MaxKP bounds kp so the int32 accumulator cannot overflow:
	// each product is at most 128·255, so |acc| ≤ kp·32640 must stay
	// below 2^31.
	int8MaxKP = 65728
	// int8MR×int8NR is the register tile of the panel kernels.
	int8MR = 4
	int8NR = 4
	// int8BlockBytes caps the B columns one pass over the row panels
	// reads, so that block stays in L2 while every panel reuses it.
	int8BlockBytes = 256 << 10
	// int8ParallelMACs: m·n·kp below this runs inline on the panel
	// kernels. The AMX engine always runs inline: on the 2-vCPU bench
	// host splitting its calls two ways was 1.1–1.8× slower than one
	// thread at every ResNet18 shape.
	int8ParallelMACs = 1 << 20
	// amxTile is an AMX tile's rows: 16 activation columns of an A tile,
	// 16 weight channels of a B tile, and a C tile is amxTile×amxTile.
	amxTile = 16
)

// Int8KP returns k rounded up to the packing granularity of the int8
// GEMM operands.
func Int8KP(k int) int { return (k + int8KStep - 1) &^ (int8KStep - 1) }

// int8Engine is one implementation of the int8 GEMM.
type int8Engine uint8

const (
	engineGeneric int8Engine = iota
	engineVNNI
	engineAMX
)

var int8EngineNames = [...]string{engineGeneric: "generic", engineVNNI: "vnni", engineAMX: "amx"}

// int8Selected is the engine int8 calls run on the AVX-512 tier: the
// host's fastest, unless SetInt8Engine lowered it. Below that tier every
// call runs the portable kernel.
var int8Selected = hostInt8Engine

func currentInt8Engine() int8Engine {
	if kernelTier != TierAVX512 {
		return engineGeneric
	}
	return int8Selected
}

// Int8Engine names the engine int8 GEMM calls run on: "amx", "vnni" or
// "generic".
func Int8Engine() string { return int8EngineNames[currentInt8Engine()] }

// Int8Engines lists the int8 engines this host can run, fastest first.
func Int8Engines() []string {
	var names []string
	for e := engineAMX; ; e-- {
		if int8EngineUsable(e) {
			names = append(names, int8EngineNames[e])
		}
		if e == engineGeneric {
			return names
		}
	}
}

// SetInt8Engine forces int8 dispatch to a named engine the host can run,
// so benchmarks can measure each engine on one host and tests can hold
// them to each other — a measurement and testing knob like SetKernelTier,
// and like it not safe to call concurrently with running GEMMs. Weights
// packed under one engine still multiply correctly under another: a call
// lays them out again in pooled scratch.
func SetInt8Engine(name string) error {
	for e, n := range int8EngineNames {
		if n == name && int8EngineUsable(int8Engine(e)) {
			int8Selected = int8Engine(e)
			return nil
		}
	}
	return fmt.Errorf("tensor: int8 engine %q not available (host runs %s)", name, int8EngineNames[hostInt8Engine])
}

// Int8Weights is the weight operand of the int8 GEMM: M rows of KP int8
// codes, held in the layout of the engine that was selected when it was
// packed — [M][KP] rows for the panel kernels, AMX B tiles otherwise.
type Int8Weights struct {
	M, KP int
	codes []int8
	tiled bool
}

// NewInt8Weights returns m rows of kp zero codes in the layout of the
// selected engine; SetRow fills them. On the AMX engine that layout is
// the only copy a layer keeps.
func NewInt8Weights(m, kp int) Int8Weights {
	w := Int8Weights{M: m, KP: kp, tiled: currentInt8Engine() == engineAMX}
	w.codes = make([]int8, w.size(w.tiled))
	return w
}

// PackInt8Weights returns rows ([m][kp] codes) as weights: NewInt8Weights
// with every row set.
func PackInt8Weights(rows []int8, m, kp int) Int8Weights {
	w := NewInt8Weights(m, kp)
	for i := 0; i < m; i++ {
		w.SetRow(i, rows[i*kp:(i+1)*kp])
	}
	return w
}

// SetRow sets row i to codes[:KP].
func (w *Int8Weights) SetRow(i int, codes []int8) {
	if !w.tiled {
		copy(w.codes[i*w.KP:(i+1)*w.KP], codes)
		return
	}
	d, s := bytesOf(w.codes[w.tileRow(i):]), bytesOf(codes[:w.KP])
	for q := 0; q < w.KP/4; q++ {
		binary.LittleEndian.PutUint32(d[q*4*amxTile:], binary.LittleEndian.Uint32(s[4*q:]))
	}
}

// Row copies row i's KP codes into dst.
func (w *Int8Weights) Row(i int, dst []int8) {
	if !w.tiled {
		copy(dst[:w.KP], w.codes[i*w.KP:])
		return
	}
	d, s := bytesOf(dst[:w.KP]), bytesOf(w.codes[w.tileRow(i):])
	for q := 0; q < w.KP/4; q++ {
		binary.LittleEndian.PutUint32(d[4*q:], binary.LittleEndian.Uint32(s[q*4*amxTile:]))
	}
}

// tileRow is the offset of row i's first code in the tiled layout, where
// channel tile t holds rows 16t..16t+15 (zero past M) as KP/4 lines of
// 64 bytes, line q carrying codes 4q..4q+3 of each of the 16 channels
// in turn: a 64-byte k step of the tile is 16 consecutive lines, one
// 1 KiB TILELOADD at stride 64.
func (w *Int8Weights) tileRow(i int) int { return i/amxTile*amxTile*w.KP + i%amxTile*4 }

// size is the length of the codes in the tiled or row layout.
func (w *Int8Weights) size(tiled bool) int {
	if tiled {
		return (w.M + amxTile - 1) / amxTile * amxTile * w.KP
	}
	return w.M * w.KP
}

// as returns w in the tiled or row layout: w itself, or a copy in buf,
// a pooled buffer the caller releases.
func (w *Int8Weights) as(tiled bool) (out Int8Weights, buf []byte) {
	if w.tiled == tiled {
		return *w, nil
	}
	out = Int8Weights{M: w.M, KP: w.KP, tiled: tiled}
	buf = GetBytes(out.size(tiled))
	out.codes = unsafe.Slice((*int8)(unsafe.Pointer(unsafe.SliceData(buf))), len(buf))
	if tiled {
		clear(buf) // the channels past M
		for i := 0; i < w.M; i++ {
			out.SetRow(i, w.codes[i*w.KP:])
		}
	} else {
		for i := 0; i < w.M; i++ {
			w.Row(i, out.codes[i*w.KP:])
		}
	}
	return out, buf
}

func bytesOf(s []int8) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// Int8Requant is the per-row epilogue GemmInt8RequantInto applies to the
// exact int32 sums: row i of the output is
//
//	y = (WScale[i]·XScale)·float32(acc − XZero·RowSum[i]) + Bias[i]
//
// — the weight channel scale times the activation scale, and the
// zero-point correction unfolded through the weight row sums — and then
// the Epilogue's post-ops on y, its Skip rows ldy apart like the
// output's. Each multiply and add is rounded on its own (never fused),
// so the result does not depend on the engine that computed it.
type Int8Requant struct {
	WScale []float32 // per output row
	RowSum []int32   // per output row: Σ_k of the int8 weights
	XScale float32
	XZero  int32
	Epilogue
}

// GemmInt8DotInto computes C = A·Bᵀ over the packed int8 layout above,
// A as [m][kp] rows: c[i*n+j] = Σ_k a[i*kp+k]·b[j*kp+k], exact int32
// arithmetic. kp must be a positive multiple of int8KStep and at most
// int8MaxKP. The AMX engine tiles a into pooled scratch first.
func GemmInt8DotInto(c []int32, a []int8, b []uint8, m, n, kp int) {
	if len(c) < m*n {
		panic("tensor: GemmInt8DotInto operand shorter than its shape")
	}
	g := int8Call{w: Int8Weights{M: m, KP: kp, codes: a}, b: b, n: n, ldc: n, raw: true,
		c: unsafe.Pointer(unsafe.SliceData(c))}
	g.run()
}

// GemmInt8RequantInto computes the int8 product of w and b and
// requantizes it through rq into y: y[i*ldy+j] is rq's epilogue applied
// to Σ_k w[i][k]·b[j*kp+k], for the w.M rows and n columns. Same operand
// contract as GemmInt8DotInto; ldy ≥ n.
func GemmInt8RequantInto(y []float32, ldy int, w *Int8Weights, b []uint8, n int, rq Int8Requant) {
	m := w.M
	if m > 0 && n > 0 && (ldy < n || len(y) < (m-1)*ldy+n) ||
		len(rq.WScale) < m || len(rq.RowSum) < m || !rq.fits(m, n, ldy) {
		panic("tensor: GemmInt8RequantInto operand shorter than its shape")
	}
	g := int8Call{w: *w, b: b, n: n, ldc: ldy, rq: rq,
		c: unsafe.Pointer(unsafe.SliceData(y))}
	g.run()
}

func checkInt8KP(kp int) {
	if kp <= 0 || kp%int8KStep != 0 || kp > int8MaxKP {
		panic("tensor: int8 GEMM kp must be a multiple of 64 in (0, 65728]")
	}
}

// int8Call is one int8 GEMM call as its loops see it. c points at
// element [0][0] of the output — int32 when raw, float32 otherwise —
// whose rows are ldc elements apart.
type int8Call struct {
	w   Int8Weights
	b   []uint8
	n   int
	c   unsafe.Pointer
	ldc int
	raw bool
	rq  Int8Requant
}

func (g *int8Call) run() {
	w := &g.w
	checkInt8KP(w.KP)
	if len(w.codes) < w.size(w.tiled) || len(g.b) < g.n*w.KP {
		panic("tensor: int8 GEMM operand shorter than its shape")
	}
	if w.M == 0 || g.n == 0 {
		return
	}
	eng := currentInt8Engine()
	var buf []byte
	g.w, buf = w.as(eng == engineAMX)
	if eng == engineAMX {
		g.runAMX()
	} else {
		g.runPanels()
	}
	if buf != nil {
		PutBytes(buf)
	}
}

func (g *int8Call) runPanels() {
	tm := (g.w.M + int8MR - 1) / int8MR
	workers := runtime.GOMAXPROCS(0)
	if int64(g.w.M)*int64(g.n)*int64(g.w.KP) < int8ParallelMACs || workers <= 1 || tm < 2 {
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
	kp := g.w.KP
	p.kp = kp
	p.raw = g.raw
	esz := uintptr(4) // int32 and float32 alike
	block := max(int8NR, int8BlockBytes/kp&^(int8NR-1))
	p.affine = g.rq.Scale != nil
	p.relu = g.rq.ReLU
	for j0 := 0; j0 < g.n; j0 += block {
		p.n = min(block, g.n-j0)
		p.b = &g.b[j0*kp]
		for pi := p0; pi < p1; pi++ {
			for r := 0; r < int8MR; r++ {
				i := min(pi*int8MR+r, g.w.M-1)
				p.a[r] = &g.w.codes[i*kp]
				p.c[r] = unsafe.Add(g.c, uintptr(i*g.ldc+j0)*esz)
				if !g.raw {
					p.setRow(r, i, j0, g.ldc, &g.rq)
				}
			}
			int8Kernel(&p)
		}
	}
}

// amxZero stands in for a nil Bias: adding +0 is what the panel kernels
// do then, and it turns a −0 sum into +0 there too.
var amxZero [2 * amxTile]float32

// runAMX runs every pair of A tiles — 32 activation columns, the last
// pair ending at column n — against every pair of channel tiles, the
// channel pairs outermost so the weights stream through once.
func (g *int8Call) runAMX() {
	var k amxKernel
	var scratch [4 * amxTile * amxTile]int32
	k.scratch = &scratch
	kp := g.w.KP
	k.setConfig(min(g.n, amxTile))
	k.a = &g.b[0]
	k.kp, k.ldc = kp, g.ldc
	k.tiles = (g.n + amxTile - 1) / amxTile
	k.pairs = (k.tiles + 1) / 2
	k.lastCol = max(g.n-amxTile, 0)
	k.colMask = 1<<min(g.n, amxTile) - 1
	k.raw = g.raw
	k.xScale, k.xZero = g.rq.XScale, g.rq.XZero
	k.affine, k.relu = g.rq.Scale != nil, g.rq.ReLU
	chTiles := (g.w.M + amxTile - 1) / amxTile
	for ct := 0; ct < chTiles; ct += 2 {
		i0 := ct * amxTile
		k.w[0] = &g.w.codes[i0*kp]
		k.w[1] = k.w[0]
		k.live[0] = min(amxTile, g.w.M-i0)
		k.live[1] = 0
		if ct+1 < chTiles {
			k.w[1] = &g.w.codes[(i0+amxTile)*kp]
			k.live[1] = min(amxTile, g.w.M-i0-amxTile)
		}
		k.c = unsafe.Add(g.c, uintptr(i0*g.ldc)*4)
		if !g.raw {
			rq := &g.rq
			k.wScale, k.rowSum, k.bias = &rq.WScale[i0], &rq.RowSum[i0], &amxZero[0]
			if rq.Bias != nil {
				k.bias = &rq.Bias[i0]
			}
			if k.affine {
				k.postScale, k.postShift = &rq.Scale[i0], &rq.Shift[i0]
			}
			if rq.Skip != nil {
				k.skip = unsafe.Pointer(&rq.Skip[i0*g.ldc])
			}
		}
		int8TilesAMX(&k)
	}
}

// amxKernel is one int8TilesAMX call: every column pair against
// one or two channel tiles (live[1] is 0 when there is one), accumulated
// over the whole of kp in a 2×2 block of C tiles, then finished tile by
// tile — requantized with the channels as lanes, transposed in registers
// so a row holds one channel, and post-opped (or stored raw) under a
// mask of the columns the tile owns. A tile starts at column min(16t, lastCol) and owns
// columns 16t up to 16t+16 or n: past the last whole tile it overlaps
// its predecessor instead of reading past n, and below 16 columns the
// tiles are colMask's n rows tall. The assembly reads this struct
// through go_asm.h offsets; c, skip and the per-row pointers start at
// the first channel's row.
type amxKernel struct {
	cfg       [64]uint8                     // LDTILECFG palette 1: C tmm0-3, A tmm4-5, B tmm6-7
	scratch   *[4 * amxTile * amxTile]int32 // the four C tiles
	a         *uint8
	w         [2]*int8
	c, skip   unsafe.Pointer
	wScale    *float32
	rowSum    *int32
	bias      *float32
	postScale *float32
	postShift *float32
	kp, ldc   int
	tiles     int // column tiles
	pairs     int
	lastCol   int
	colMask   int
	live      [2]int
	xScale    float32
	xZero     int32
	raw       bool
	affine    bool
	relu      bool
}

// setConfig fills the tile configuration for A and C tiles rows tall.
func (k *amxKernel) setConfig(rows int) {
	k.cfg[0] = 1 // palette
	for t := 0; t < 8; t++ {
		binary.LittleEndian.PutUint16(k.cfg[16+2*t:], 64)
		k.cfg[48+t] = uint8(rows)
	}
	k.cfg[48+6], k.cfg[48+7] = amxTile, amxTile // B: kp/4 lines of one 64-byte k step
}

// int8Panel is one panel-kernel call: int8MR weight rows against n
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

// int8PanelGeneric is the portable panel kernel, compiled on every
// platform: the VNNI kernel's int8MR×int8NR tile and edge rules in Go,
// bit-identical to it.
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
