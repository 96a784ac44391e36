// Package kernelbench measures the tensor compute kernels — the blocked
// GEMM engine per kernel tier, im2col, and whole Conv2D
// forward passes over the GEMM shapes the model zoo actually produces —
// and renders the results as a machine-readable report. adcnn-bench
// (-exp kernels) writes the report to BENCH_kernels.json so the kernel
// perf trajectory is tracked across PRs.
package kernelbench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"adcnn/internal/nn"
	"adcnn/internal/quant"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// Result is one benchmark measurement.
type Result struct {
	Name    string  `json:"name"`
	Shape   string  `json:"shape,omitempty"`
	Threads int     `json:"threads"`
	NsPerOp float64 `json:"ns_per_op"`
	// RefNsPerOp is the reference side's median ns per call on a row
	// timed in alternating rounds; SpeedupVsRef is then the median of
	// the rounds' ratios, not the ratio of the medians.
	RefNsPerOp   float64 `json:"ref_ns_per_op,omitempty"`
	GFlops       float64 `json:"gflops,omitempty"`
	GBPerSec     float64 `json:"gb_per_sec,omitempty"`
	GMACPerSec   float64 `json:"gmac_per_sec,omitempty"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	SpeedupVsRef float64 `json:"speedup_vs_ref,omitempty"`
	ScalingVs1T  float64 `json:"scaling_vs_1_thread,omitempty"`
	// ShareOfPeak is GFlops over the fma_peak row with the same thread
	// count: how much of the machine the kernel uses.
	ShareOfPeak float64 `json:"share_of_fma_peak,omitempty"`
}

// Report is the full kernel benchmark suite output. The embedded host
// metadata (OS/arch, CPU count, Go version, git commit) makes
// BENCH_*.json files comparable across machines.
type Report struct {
	Timestamp string `json:"timestamp"`
	telemetry.Host
	GOMAXPROCS int `json:"gomaxprocs"`
	// KernelTier is the SIMD dispatch tier the host CPU selected
	// (generic / avx2 / avx512) — the tier every non-forced
	// result ran at.
	KernelTier string `json:"kernel_tier"`
	// Int8Engine is the int8 GEMM engine the host selected (amx / vnni /
	// generic) — the engine every non-forced int8 result ran on.
	Int8Engine string   `json:"int8_engine"`
	Results    []Result `json:"results"`
}

// ConvShape is a GEMM shape as produced by a conv layer: M=OutC,
// K=InC·KH·KW, N=OH·OW. The conv-geometry fields (InC, spatial size,
// kernel, padding; stride is 1 throughout the zoo) let the whole-layer
// benchmarks rebuild the layer that produces the GEMM shape.
type ConvShape struct {
	Name    string
	M, K, N int
	InC     int // input channels
	H, W    int // input spatial size (output matches: stride 1, same pad)
	KH, KW  int // kernel size
	Pad     int // symmetric spatial padding
}

// ZooConvShapes are representative per-tile GEMM shapes from the model
// zoo (VGG16 / YOLO blocks on FDSP-partitioned feature maps).
var ZooConvShapes = []ConvShape{
	{"vgg_L2_64x64_56sq", 64, 64 * 9, 56 * 56, 64, 56, 56, 3, 3, 1},
	{"vgg_L4_128x128_28sq", 128, 128 * 9, 28 * 28, 128, 28, 28, 3, 3, 1},
	{"vgg_L7_256x256_14sq", 256, 256 * 9, 14 * 14, 256, 14, 14, 3, 3, 1},
	{"vgg_L13_512x512_7sq", 512, 512 * 9, 7 * 7, 512, 7, 7, 3, 3, 1},
	{"yolo_1x1_512to256_14sq", 256, 512, 14 * 14, 512, 14, 14, 1, 1, 0},
}

// LatencyShapes are the f32 GEMMs that set an image's latency in the
// end-to-end benchmark: ResNet18's convolutions at 2×2-tile size (stem,
// L1–L2, L3–L4 on the nodes; L5–L6 and L7–L8 on the Central) and the
// heaviest VGG-sim convolution at 4×4-tile size.
var LatencyShapes = [][3]int{
	{64, 147, 3136}, {64, 576, 784}, {128, 1152, 196}, {256, 2304, 196}, {512, 4608, 49},
	{12, 108, 64},
}

func benchGemm(m, k, n int, f func(c, a, b *tensor.Tensor)) (float64, int64) {
	rng := rand.New(rand.NewSource(1))
	a := tensor.New(m, k)
	b := tensor.New(k, n)
	c := tensor.New(m, n)
	a.RandU(rng, -1, 1)
	b.RandU(rng, -1, 1)
	r := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			f(c, a, b)
		}
	})
	return float64(r.NsPerOp()), r.AllocsPerOp()
}

func gflops(m, k, n int, nsPerOp float64) float64 {
	return 2 * float64(m) * float64(k) * float64(n) / nsPerOp
}

// benchGemmSlices measures the slice-level blocked f32 GEMM (the engine
// the conv forward calls) at the current kernel tier and GOMAXPROCS.
func benchGemmSlices(m, k, n int) (float64, int64) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = rng.Float32() - 0.5
	}
	for i := range b {
		b[i] = rng.Float32() - 0.5
	}
	r := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			tensor.GemmInto(c, a, b, m, k, n)
		}
	})
	return float64(r.NsPerOp()), r.AllocsPerOp()
}

// Run executes the kernel suite. It temporarily pins GOMAXPROCS for the
// single-thread measurements and restores it afterwards.
func Run() Report {
	maxProcs := runtime.GOMAXPROCS(0)
	rep := Report{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Host:       telemetry.HostInfo(),
		GOMAXPROCS: maxProcs,
		KernelTier: tensor.DetectedKernelTier().String(),
		Int8Engine: tensor.Int8Engine(),
	}
	add := func(r Result) { rep.Results = append(rep.Results, r) }

	// Acceptance shape: 256×256×256 MatMulTransB, single thread.
	runtime.GOMAXPROCS(1)
	const s = 256
	newNs, newAllocs := benchGemm(s, s, s, func(c, a, b *tensor.Tensor) {
		tensor.MatMulTransBInto(c, a, b)
	})
	add(Result{Name: "matmul_transb_blocked", Shape: "256x256x256", Threads: 1,
		NsPerOp: newNs, GFlops: gflops(s, s, s, newNs), AllocsPerOp: newAllocs})

	// MatMulInto scaling up to GOMAXPROCS.
	var oneThreadNs float64
	for threads := 1; ; threads *= 2 {
		if threads > maxProcs {
			threads = maxProcs
		}
		runtime.GOMAXPROCS(threads)
		ns, al := benchGemm(s, s, s, func(c, a, b *tensor.Tensor) {
			tensor.MatMulInto(c, a, b)
		})
		if threads == 1 {
			oneThreadNs = ns
		}
		add(Result{Name: "matmul_blocked", Shape: "256x256x256", Threads: threads,
			NsPerOp: ns, GFlops: gflops(s, s, s, ns), AllocsPerOp: al,
			ScalingVs1T: oneThreadNs / ns})
		if threads == maxProcs {
			break
		}
	}
	runtime.GOMAXPROCS(maxProcs)

	// SIMD tier comparison: the f32 GEMM pinned to each dispatch tier the
	// host supports, single thread.
	runtime.GOMAXPROCS(1)
	detected := tensor.DetectedKernelTier()
	for _, tier := range []tensor.KernelTier{tensor.TierGeneric, tensor.TierAVX2, tensor.TierAVX512} {
		if tensor.SetKernelTier(tier) != nil {
			continue // above what this host supports
		}
		ns, al := benchGemm(s, s, s, func(c, a, b *tensor.Tensor) {
			tensor.MatMulTransBInto(c, a, b)
		})
		add(Result{Name: "matmul_blocked_" + tier.String(), Shape: "256x256x256",
			Threads: 1, NsPerOp: ns, GFlops: gflops(s, s, s, ns), AllocsPerOp: al})
	}
	_ = tensor.SetKernelTier(detected)

	// The shapes that set an image's latency, one and two threads, each
	// as a share of what the FMA units can do: a loop of independent
	// fused multiply-adds with no loads, on as many threads. The peak is
	// taken before and after the shapes and the higher one kept, since a
	// shared host's slow spells outlast either measurement.
	for _, threads := range []int{1, 2} {
		if threads > maxProcs {
			break
		}
		runtime.GOMAXPROCS(threads)
		peak := fmaPeakGFlops(threads)
		var rows []Result
		for _, sh := range LatencyShapes {
			ns, al := benchGemmSlices(sh[0], sh[1], sh[2])
			rows = append(rows, Result{Name: "gemm_latency", Shape: fmt.Sprintf("%dx%dx%d", sh[0], sh[1], sh[2]),
				Threads: threads, NsPerOp: ns, GFlops: gflops(sh[0], sh[1], sh[2], ns), AllocsPerOp: al})
		}
		peak = max(peak, fmaPeakGFlops(threads))
		add(Result{Name: "fma_peak", Threads: threads, GFlops: peak})
		for _, r := range rows {
			if peak > 0 {
				r.ShareOfPeak = r.GFlops / peak
			}
			add(r)
		}
	}
	runtime.GOMAXPROCS(1)

	// Int8 quantized GEMM (s8×u8→s32 dot-product layout) on the
	// acceptance shape and the zoo shapes, single thread. speedup_vs_ref
	// is measured against the f32 engine on the same shape and tier.
	benchInt8 := func(name string, m, k, n int, f32Ref float64) {
		kp := tensor.Int8KP(k)
		rng := rand.New(rand.NewSource(3))
		a8 := make([]int8, m*kp)
		b8 := make([]uint8, n*kp)
		c32 := make([]int32, m*n)
		for i := range a8 {
			a8[i] = int8(rng.Intn(255) - 127)
		}
		for i := range b8 {
			b8[i] = uint8(rng.Intn(256))
		}
		br := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				tensor.GemmInt8DotInto(c32, a8, b8, m, n, kp)
			}
		})
		ns := float64(br.NsPerOp())
		add(Result{Name: name, Shape: fmt.Sprintf("%dx%dx%d", m, k, n),
			Threads: 1, NsPerOp: ns, GFlops: gflops(m, k, n, ns),
			AllocsPerOp: br.AllocsPerOp(), SpeedupVsRef: f32Ref / ns})
	}
	benchInt8("gemm_int8_dot", s, s, s, newNs)
	for _, cs := range ZooConvShapes {
		fNs, _ := benchGemmSlices(cs.M, cs.K, cs.N)
		benchInt8("gemm_int8_"+cs.Name, cs.M, cs.K, cs.N, fNs)
	}
	// A classifier head on one image: a single activation column.
	fcNs, _ := benchGemmSlices(1000, 512, 1)
	benchInt8("gemm_int8_fc_1000x512x1", 1000, 512, 1, fcNs)

	// The entry every int8 conv calls, once per engine the host runs, on
	// the zoo shapes and ResNet18's stem: requantize, BatchNorm and ReLU
	// in the epilogue, weights packed for the engine beforehand.
	int8Shapes := append([]ConvShape{{Name: "r18_stem_7x7s2_56sq", M: 64, K: 147, N: 56 * 56}}, ZooConvShapes...)
	for _, e := range tensor.Int8Engines() {
		_ = tensor.SetInt8Engine(e)
		for _, cs := range int8Shapes {
			add(benchInt8Requant("gemm_int8_requant_"+e, cs.M, cs.K, cs.N))
		}
	}
	_ = tensor.SetInt8Engine(tensor.Int8Engines()[0])

	// Inference convolution, one thread: Conv2D's forward (the bordered
	// input read through the offset table) against im2col + the fused
	// GEMM on the same sample. speedup_vs_ref is the im2col time over
	// Conv2D's.
	for _, cs := range convF32Shapes {
		add(benchConvF32(cs))
	}
	// The same on the int8 path, ResNet18's shapes: Conv2D's forward
	// (the channels-last copy read in place; im2col for the stem)
	// against the quantized im2col + GemmInt8RequantInto route.
	for _, cs := range convF32Shapes {
		if cs.Name[:4] == "r18_" {
			add(benchConvInt8(cs))
		}
	}

	// The memory-bound passes of ResNet18's stem on a 2×2 tile, one
	// thread: the generic tier's loop against the host tier's kernel.
	// gb_per_sec counts every float read and written once.
	for _, r := range benchPostOps() {
		add(r)
	}
	runtime.GOMAXPROCS(maxProcs)

	// Model-zoo conv GEMM shapes at full parallelism.
	for _, cs := range ZooConvShapes {
		ns, al := benchGemm(cs.M, cs.K, cs.N, func(c, a, b *tensor.Tensor) {
			tensor.MatMulInto(c, a, b)
		})
		add(Result{Name: "conv_gemm_" + cs.Name,
			Shape:   fmt.Sprintf("%dx%dx%d", cs.M, cs.K, cs.N),
			Threads: maxProcs, NsPerOp: ns,
			GFlops: gflops(cs.M, cs.K, cs.N, ns), AllocsPerOp: al})
	}

	// Whole-layer inference forward (pooled bordered input, fused bias): the
	// allocs column is the zero-allocation acceptance criterion.
	rng := rand.New(rand.NewSource(2))
	conv := nn.NewConv2D("bench", 64, 64, 3, 3, 1, 1, rng)
	x := tensor.New(1, 64, 56, 56)
	x.RandU(rng, -1, 1)
	y := tensor.New(conv.OutShape(x.Shape)...)
	conv.ForwardInto(y, x, false) // prime the pool
	r := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			conv.ForwardInto(y, x, false)
		}
	})
	oh, ow := conv.Geom.OutSize(56, 56)
	add(Result{Name: "conv2d_forward_64x64_3x3_56sq", Shape: "1x64x56x56",
		Threads: maxProcs, NsPerOp: float64(r.NsPerOp()),
		GFlops:      2 * 64 * 64 * 9 * float64(oh*ow) / float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp()})

	// The same layer through the int8 path: quantized weights, dynamic
	// activation affine, fused requantize. The allocs column is the int8
	// zero-allocation acceptance criterion; speedup_vs_ref compares
	// against the f32 forward just measured.
	if err := conv.QuantizeInt8(); err == nil {
		conv.ForwardInto(y, x, false) // prime the int8 pools
		qr := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				conv.ForwardInto(y, x, false)
			}
		})
		add(Result{Name: "conv2d_forward_int8_64x64_3x3_56sq", Shape: "1x64x56x56",
			Threads: maxProcs, NsPerOp: float64(qr.NsPerOp()),
			GFlops:       2 * 64 * 64 * 9 * float64(oh*ow) / float64(qr.NsPerOp()),
			AllocsPerOp:  qr.AllocsPerOp(),
			SpeedupVsRef: float64(r.NsPerOp()) / float64(qr.NsPerOp())})
		conv.ClearInt8()
	}

	// im2col kernel on the same feature map.
	g := conv.Geom
	colsLen := g.ColsLen(64, 56, 56)
	buf := tensor.GetBuf(colsLen)
	src := x.Data[:64*56*56]
	ir := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			tensor.Im2ColSlice(buf, src, 64, 56, 56, g)
		}
	})
	tensor.PutBuf(buf)
	add(Result{Name: "im2col_64ch_3x3_56sq", Shape: "64x56x56",
		Threads: 1, NsPerOp: float64(ir.NsPerOp()), AllocsPerOp: ir.AllocsPerOp()})

	// Quantized im2col in both directions the int8 operating mode runs —
	// f32 activations → packed levels (local compute) and decoded wire
	// levels → packed levels (the levels-native quantized uplink). GB/s
	// counts the source image read once plus the packed column matrix
	// written.
	mn, mx := tensor.MinMax(src)
	af, _ := quant.AffineFor(mn, mx)
	qkp := tensor.Int8KP(64 * 9)
	qbuf := tensor.GetBytes(oh * ow * qkp)
	benchQuantIm2Col := func(name string, bytes float64, f func()) {
		qr := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				f()
			}
		})
		ns := float64(qr.NsPerOp())
		add(Result{Name: name, Shape: "64x56x56", Threads: 1, NsPerOp: ns,
			GBPerSec: bytes / ns, AllocsPerOp: qr.AllocsPerOp()})
	}
	benchQuantIm2Col("quantized_im2col_f32_fused", float64(4*64*56*56+oh*ow*qkp), func() {
		tensor.Im2ColQuantSlice(qbuf, src, 64, 56, 56, g, af.InvScale(), af.Zero, qkp)
	})
	lv := tensor.GetBytes(64 * 56 * 56)
	tensor.QuantizeAffineSlice(lv, src, af.InvScale(), af.Zero)
	benchQuantIm2Col("quantized_im2col_u8_fused", float64(64*56*56+oh*ow*qkp), func() {
		tensor.Im2ColU8Slice(qbuf, lv, 64, 56, 56, g, af.Zero, qkp)
	})
	tensor.PutBytes(lv)
	tensor.PutBytes(qbuf)

	// Whole-layer int8-vs-f32 ratio per model-zoo shape: each zoo GEMM
	// shape rebuilt as the conv layer that produces it, the f32 and the
	// int8 forward of one set of weights in alternating rounds.
	// speedup_vs_ref is the f32/int8 whole-layer ratio; what int8 buys an
	// image is the end-to-end benchmark's r18-int8-seq against
	// r18-f32-seq.
	for _, cs := range ZooConvShapes {
		layer := func() *nn.Conv2D {
			return nn.NewConv2D(cs.Name, cs.InC, cs.M, cs.KH, cs.KW, 1, cs.Pad, rand.New(rand.NewSource(4)))
		}
		fconv, qconv := layer(), layer()
		if err := qconv.QuantizeInt8(); err != nil {
			continue
		}
		lx := tensor.New(1, cs.InC, cs.H, cs.W)
		lx.RandU(rand.New(rand.NewSource(5)), -1, 1)
		ly := tensor.New(fconv.OutShape(lx.Shape)...)
		p := paired(func() { fconv.ForwardInto(ly, lx, false) }, func() { qconv.ForwardInto(ly, lx, false) })
		add(Result{Name: "int8_whole_layer_" + cs.Name,
			Shape:   fmt.Sprintf("1x%dx%dx%d", cs.InC, cs.H, cs.W),
			Threads: maxProcs, NsPerOp: p.ns, RefNsPerOp: p.refNs,
			GFlops:       2 * float64(cs.M) * float64(cs.K) * float64(cs.N) / p.ns,
			AllocsPerOp:  p.allocs,
			SpeedupVsRef: p.ratio})
	}

	// Conv → BatchNorm → ReLU at inference, f32 and int8, on ResNet18's L1
	// and L6 shapes: the fused chain (one conv call that applies the
	// BatchNorm and the ReLU in its GEMM epilogue) against the three
	// layers' own Forwards, which allocate an output each. speedup_vs_ref
	// is the unfused time over the fused.
	for _, cs := range []ConvShape{
		{"r18_L1_64x64_28sq", 64, 64 * 9, 28 * 28, 64, 28, 28, 3, 3, 1},
		{"r18_L6_256x256_14sq", 256, 256 * 9, 14 * 14, 256, 14, 14, 3, 3, 1},
	} {
		for _, mode := range []string{"f32", "int8"} {
			crng := rand.New(rand.NewSource(5))
			conv := nn.NewConv2D(cs.Name, cs.InC, cs.M, cs.KH, cs.KW, 1, cs.Pad, crng).NoBias()
			bn := nn.NewBatchNorm2D(cs.Name+".bn", cs.M)
			bn.Gamma.Value.RandU(crng, 0.5, 1.5)
			bn.Beta.Value.RandU(crng, -0.5, 0.5)
			relu := nn.NewReLU(cs.Name + ".relu")
			if mode == "int8" && conv.QuantizeInt8() != nil {
				continue
			}
			chain := nn.NewSequential(cs.Name, conv, bn, relu)
			cx := tensor.New(1, cs.InC, cs.H, cs.W)
			cx.RandU(crng, -1, 1)
			run := func(f func()) testing.BenchmarkResult {
				f() // prime the pools
				return testing.Benchmark(func(tb *testing.B) {
					tb.ReportAllocs()
					for i := 0; i < tb.N; i++ {
						f()
					}
				})
			}
			unfused := run(func() { relu.Forward(bn.Forward(conv.Forward(cx, false), false), false) })
			fused := run(func() { chain.Forward(cx, false) })
			name, shape := "conv_bn_relu_"+mode+"_"+cs.Name, fmt.Sprintf("1x%dx%dx%d", cs.InC, cs.H, cs.W)
			flops := 2 * float64(cs.M) * float64(cs.K) * float64(cs.N)
			add(Result{Name: name + "_unfused", Shape: shape, Threads: maxProcs,
				NsPerOp: float64(unfused.NsPerOp()), GFlops: flops / float64(unfused.NsPerOp()),
				AllocsPerOp: unfused.AllocsPerOp()})
			add(Result{Name: name, Shape: shape, Threads: maxProcs,
				NsPerOp: float64(fused.NsPerOp()), GFlops: flops / float64(fused.NsPerOp()),
				AllocsPerOp:  fused.AllocsPerOp(),
				SpeedupVsRef: float64(unfused.NsPerOp()) / float64(fused.NsPerOp())})
		}
	}

	return rep
}

// convF32Shape is one class of inference convolution: InC×H×H in, OutC
// out, a K×K kernel at Stride with Pad.
type convF32Shape struct {
	Name                         string
	InC, OutC, H, K, Stride, Pad int
}

// convF32Shapes are the f32 convolutions an FDSP tile runs: ResNet18's
// stem on a 2×2 tile, its stride-1 and stride-2 3×3 convs and its 1×1
// shortcut at 28², the 512-channel 3×3 at 7², and VGG-sim's 24-channel
// layers on a 4×4 tile's 2×2 plane.
var convF32Shapes = []convF32Shape{
	{"r18_stem_7x7s2_112sq", 3, 64, 112, 7, 2, 3},
	{"r18_3x3s1_64x64_28sq", 64, 64, 28, 3, 1, 1},
	{"r18_3x3s2_64x128_28sq", 64, 128, 28, 3, 2, 1},
	{"r18_1x1s2_64x128_28sq", 64, 128, 28, 1, 2, 0},
	{"r18_3x3s1_512x512_7sq", 512, 512, 7, 3, 1, 1},
	{"vggsim_3x3s1_24x24_2sq", 24, 24, 2, 3, 1, 1},
}

// benchConvF32 times cs through Conv2D's inference forward against
// Im2ColSlice + GemmEpilogueInto with the layer's bias, at the current
// GOMAXPROCS, in alternating rounds.
func benchConvF32(cs convF32Shape) Result {
	rng := rand.New(rand.NewSource(6))
	conv := nn.NewConv2D(cs.Name, cs.InC, cs.OutC, cs.K, cs.K, cs.Stride, cs.Pad, rng)
	conv.Bias.Value.RandU(rng, -1, 1)
	x := tensor.New(1, cs.InC, cs.H, cs.H)
	x.RandU(rng, -1, 1)
	y := tensor.New(conv.OutShape(x.Shape)...)
	oh, ow := conv.Geom.OutSize(cs.H, cs.H)
	k := cs.InC * cs.K * cs.K
	cols := make([]float32, k*oh*ow)
	ep := tensor.Epilogue{Bias: conv.Bias.Value.Data}
	p := paired(func() {
		tensor.Im2ColSlice(cols, x.Data, cs.InC, cs.H, cs.H, conv.Geom)
		tensor.GemmEpilogueInto(y.Data, conv.Weight.Value.Data, cols, cs.OutC, k, oh*ow, ep)
	}, func() { conv.ForwardInto(y, x, false) })
	return Result{Name: "conv_f32_" + cs.Name, Shape: fmt.Sprintf("1x%dx%dx%d", cs.InC, cs.H, cs.H),
		Threads: runtime.GOMAXPROCS(0), NsPerOp: p.ns, RefNsPerOp: p.refNs,
		GFlops:       2 * float64(cs.OutC) * float64(k) * float64(oh*ow) / p.ns,
		AllocsPerOp:  p.allocs,
		SpeedupVsRef: p.ratio}
}

// benchConvInt8 times cs through Conv2D's int8 inference forward against
// the im2col route it replaces for InC a multiple of 64 — MinMax,
// AffineFor, Im2ColQuantSlice and GemmInt8RequantInto with the layer's
// bias and its filters in im2col order — at the current GOMAXPROCS, in
// alternating rounds.
func benchConvInt8(cs convF32Shape) Result {
	rng := rand.New(rand.NewSource(8))
	conv := nn.NewConv2D(cs.Name, cs.InC, cs.OutC, cs.K, cs.K, cs.Stride, cs.Pad, rng)
	conv.Bias.Value.RandU(rng, -1, 1)
	if err := conv.QuantizeInt8(); err != nil {
		panic(err)
	}
	x := tensor.New(1, cs.InC, cs.H, cs.H)
	x.RandU(rng, -1, 1)
	y := tensor.New(conv.OutShape(x.Shape)...)
	oh, ow := conv.Geom.OutSize(cs.H, cs.H)
	k := cs.InC * cs.K * cs.K
	kp := tensor.Int8KP(k)
	pc, err := quant.QuantizePerChannel(conv.Weight.Value.Data, cs.OutC, k, kp)
	if err != nil {
		panic(err)
	}
	cols := make([]uint8, oh*ow*kp)
	p := paired(func() {
		mn, mx := tensor.MinMax(x.Data)
		af, _ := quant.AffineFor(mn, mx)
		tensor.Im2ColQuantSlice(cols, x.Data, cs.InC, cs.H, cs.H, conv.Geom, af.InvScale(), af.Zero, kp)
		tensor.GemmInt8RequantInto(y.Data, oh*ow, &pc.Data, cols, oh*ow, tensor.Int8Requant{WScale: pc.Scales,
			RowSum: pc.RowSum, XScale: af.Scale, XZero: int32(af.Zero), Epilogue: tensor.Epilogue{Bias: conv.Bias.Value.Data}})
	}, func() { conv.ForwardInto(y, x, false) })
	return Result{Name: "conv_int8_" + cs.Name, Shape: fmt.Sprintf("1x%dx%dx%d", cs.InC, cs.H, cs.H),
		Threads: runtime.GOMAXPROCS(0), NsPerOp: p.ns, RefNsPerOp: p.refNs,
		GFlops:       2 * float64(cs.OutC) * float64(k) * float64(oh*ow) / p.ns,
		AllocsPerOp:  p.allocs,
		SpeedupVsRef: p.ratio}
}

// benchPostOps times the stem's 2×2 max-pool, folded BatchNorm and ReLU
// on a 64×56×56 map (ResNet18's stem output on a 2×2 tile), each on the
// generic tier against the host's, in alternating rounds.
func benchPostOps() []Result {
	const c, h, w = 64, 56, 56
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(1, c, h, w)
	x.RandU(rng, -1, 1)
	y := tensor.New(1, c, h, w)
	scale, shift := make([]float32, c), make([]float32, c)
	for ch := range scale {
		scale[ch], shift[ch] = rng.Float32()+0.5, rng.Float32()-0.5
	}
	n := float64(c * h * w)
	rows := []struct {
		name  string
		bytes float64
		f     func()
	}{
		{"maxpool2x2_f32_stem", 4 * (n + n/4), func() { tensor.MaxPool2x2Into(y.Data, x.Data, c, h, w) }},
		{"post_f32_bn", 8 * n, func() {
			for ch := range scale {
				plane := ch * h * w
				tensor.RowPost{Affine: true, Scale: scale[ch], Shift: shift[ch]}.Into(y.Data[plane:plane+h*w], x.Data[plane:plane+h*w])
			}
		}},
		{"post_f32_relu", 8 * n, func() { tensor.RowPost{ReLU: true}.Into(y.Data, x.Data) }},
	}
	host := tensor.CurrentKernelTier()
	defer tensor.SetKernelTier(host)
	onTier := func(t tensor.KernelTier, f func()) func() {
		return func() {
			_ = tensor.SetKernelTier(t)
			f()
		}
	}
	var out []Result
	for _, r := range rows {
		p := paired(onTier(tensor.TierGeneric, r.f), onTier(host, r.f))
		out = append(out, Result{Name: r.name, Shape: fmt.Sprintf("%dx%dx%d", c, h, w), Threads: 1,
			NsPerOp: p.ns, RefNsPerOp: p.refNs, GBPerSec: r.bytes / p.ns, AllocsPerOp: p.allocs, SpeedupVsRef: p.ratio})
	}
	return out
}

// pairRounds and pairRoundTime set paired's measurement: a shared host's
// slow spells last seconds, so two sides timed one after the other can
// land in different ones; short alternating rounds put both in each.
const (
	pairRounds    = 7
	pairRoundTime = 100 * time.Millisecond
)

// pairTiming is what paired measured: each side's median ns per call,
// the median over rounds of ref's time over the side's, and the side's
// allocations per call.
type pairTiming struct {
	refNs, ns, ratio float64
	allocs           int64
}

// paired times ref and f in pairRounds alternating rounds of about
// pairRoundTime each, the batch sizes set once from a calibration run.
func paired(ref, f func()) pairTiming {
	nRef, n := batchFor(ref), batchFor(f)
	refNs, ns, ratios := make([]float64, pairRounds), make([]float64, pairRounds), make([]float64, pairRounds)
	for i := range ratios {
		refNs[i], ns[i] = timeCalls(ref, nRef), timeCalls(f, n)
		ratios[i] = refNs[i] / ns[i]
	}
	return pairTiming{refNs: median(refNs), ns: median(ns), ratio: median(ratios),
		allocs: int64(testing.AllocsPerRun(3, f))}
}

// batchFor returns how many calls of f take about pairRoundTime,
// doubling a batch until it takes a tenth of that.
func batchFor(f func()) int {
	for n := 1; ; n *= 2 {
		if ns := timeCalls(f, n); float64(n)*ns >= float64(pairRoundTime/10) {
			return max(1, int(float64(pairRoundTime)/ns))
		}
	}
}

// timeCalls returns the mean ns per call of n calls of f.
func timeCalls(f func(), n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// median returns the middle of xs (the mean of the two middles for an
// even count), sorting xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[m-1] + xs[m]) / 2
	}
	return xs[m]
}

// benchInt8Requant measures GemmInt8RequantInto on m×Int8KP(k)×n under
// the selected int8 engine and GOMAXPROCS.
func benchInt8Requant(name string, m, k, n int) Result {
	kp := tensor.Int8KP(k)
	rng := rand.New(rand.NewSource(3))
	a8 := make([]int8, m*kp)
	b8 := make([]uint8, n*kp)
	for i := range a8 {
		a8[i] = int8(rng.Intn(255) - 127)
	}
	for i := range b8 {
		b8[i] = uint8(rng.Intn(256))
	}
	perRow := func() []float32 {
		v := make([]float32, m)
		for i := range v {
			v[i] = rng.Float32()
		}
		return v
	}
	rq := tensor.Int8Requant{WScale: perRow(), RowSum: make([]int32, m), XScale: 0.02, XZero: 7,
		Epilogue: tensor.Epilogue{Bias: perRow(), Scale: perRow(), Shift: perRow(), ReLU: true}}
	w := tensor.PackInt8Weights(a8, m, kp)
	y := make([]float32, m*n)
	br := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			tensor.GemmInt8RequantInto(y, n, &w, b8, n, rq)
		}
	})
	ns := float64(br.NsPerOp())
	return Result{Name: name, Shape: fmt.Sprintf("%dx%dx%d", m, kp, n), Threads: runtime.GOMAXPROCS(0),
		NsPerOp: ns, GMACPerSec: float64(m) * float64(kp) * float64(n) / ns, AllocsPerOp: br.AllocsPerOp()}
}

// WriteText renders a human-readable table.
func (r Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "kernel benchmarks (%s, %s, GOMAXPROCS=%d, tier=%s, int8=%s)\n",
		r.GoVersion, r.GOARCH, r.GOMAXPROCS, r.KernelTier, r.Int8Engine)
	fmt.Fprintf(w, "%-46s %-16s %8s %12s %9s %7s %7s %9s %7s\n",
		"name", "shape", "threads", "ns/op", "GFLOP/s", "GB/s", "allocs", "vs-ref", "of-peak")
	for _, res := range r.Results {
		speed := ""
		if res.SpeedupVsRef > 0 {
			speed = fmt.Sprintf("%.2fx", res.SpeedupVsRef)
		}
		gf := ""
		if res.GFlops > 0 {
			gf = fmt.Sprintf("%.2f", res.GFlops)
		}
		if res.GMACPerSec > 0 {
			gf = fmt.Sprintf("%.2f", 2*res.GMACPerSec) // two flops a MAC
		}
		gb := ""
		if res.GBPerSec > 0 {
			gb = fmt.Sprintf("%.2f", res.GBPerSec)
		}
		peak := ""
		if res.ShareOfPeak > 0 {
			peak = fmt.Sprintf("%.0f%%", 100*res.ShareOfPeak)
		}
		fmt.Fprintf(w, "%-46s %-16s %8d %12.0f %9s %7s %7d %9s %7s\n",
			res.Name, res.Shape, res.Threads, res.NsPerOp, gf, gb, res.AllocsPerOp, speed, peak)
	}
}
