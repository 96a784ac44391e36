// Package kernelbench measures the tensor compute kernels — the blocked
// GEMM engine, the retained naive references, im2col, and whole Conv2D
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
	"testing"
	"time"

	"adcnn/internal/nn"
	"adcnn/internal/quant"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// Result is one benchmark measurement.
type Result struct {
	Name         string  `json:"name"`
	Shape        string  `json:"shape,omitempty"`
	Threads      int     `json:"threads"`
	NsPerOp      float64 `json:"ns_per_op"`
	GFlops       float64 `json:"gflops,omitempty"`
	GBPerSec     float64 `json:"gb_per_sec,omitempty"`
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
	KernelTier string   `json:"kernel_tier"`
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
	}
	add := func(r Result) { rep.Results = append(rep.Results, r) }

	// Acceptance shape: 256×256×256 MatMulTransB, single thread, blocked
	// engine vs retained naive reference.
	runtime.GOMAXPROCS(1)
	const s = 256
	refNs, refAllocs := benchGemm(s, s, s, func(c, a, b *tensor.Tensor) {
		tensor.RefMatMulTransB(a, b)
	})
	add(Result{Name: "matmul_transb_ref", Shape: "256x256x256", Threads: 1,
		NsPerOp: refNs, GFlops: gflops(s, s, s, refNs), AllocsPerOp: refAllocs})
	newNs, newAllocs := benchGemm(s, s, s, func(c, a, b *tensor.Tensor) {
		tensor.MatMulTransBInto(c, a, b)
	})
	add(Result{Name: "matmul_transb_blocked", Shape: "256x256x256", Threads: 1,
		NsPerOp: newNs, GFlops: gflops(s, s, s, newNs), AllocsPerOp: newAllocs,
		SpeedupVsRef: refNs / newNs})

	// MatMulInto single-thread baseline + scaling up to GOMAXPROCS.
	refMMNs, _ := benchGemm(s, s, s, func(c, a, b *tensor.Tensor) {
		tensor.RefMatMulInto(c, a, b)
	})
	add(Result{Name: "matmul_ref", Shape: "256x256x256", Threads: 1,
		NsPerOp: refMMNs, GFlops: gflops(s, s, s, refMMNs), AllocsPerOp: 0})
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
			SpeedupVsRef: refMMNs / ns, ScalingVs1T: oneThreadNs / ns})
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
			Threads: 1, NsPerOp: ns, GFlops: gflops(s, s, s, ns), AllocsPerOp: al,
			SpeedupVsRef: refNs / ns})
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

	// Whole-layer inference forward (pooled im2col, fused bias): the
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

	// Quantized im2col: the fused SIMD quantize-while-pack path against
	// the retained per-element reference, in both directions the int8
	// operating mode runs — f32 activations → packed levels (local
	// compute) and decoded wire levels → packed levels (the levels-native
	// quantized uplink). GB/s counts the source image read once plus the
	// packed column matrix written — the fixed data movement both
	// implementations share — so the reference's overlap-window re-reads
	// and re-quantization count against it, not for it.
	mn, mx := tensor.MinMax(src)
	af, _ := quant.AffineFor(mn, mx)
	qkp := tensor.Int8KP(64 * 9)
	qbuf := tensor.GetBytes(oh * ow * qkp)
	benchQuantIm2Col := func(name string, bytes float64, f func()) float64 {
		qr := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				f()
			}
		})
		ns := float64(qr.NsPerOp())
		add(Result{Name: name, Shape: "64x56x56", Threads: 1, NsPerOp: ns,
			GBPerSec: bytes / ns, AllocsPerOp: qr.AllocsPerOp()})
		return ns
	}
	qf32Bytes := float64(4*64*56*56 + oh*ow*qkp)
	refQNs := benchQuantIm2Col("quantized_im2col_f32_ref", qf32Bytes, func() {
		tensor.RefIm2ColQuantSlice(qbuf, src, 64, 56, 56, g, af.InvScale(), af.Zero, qkp)
	})
	fusedQNs := benchQuantIm2Col("quantized_im2col_f32_fused", qf32Bytes, func() {
		tensor.Im2ColQuantSlice(qbuf, src, 64, 56, 56, g, af.InvScale(), af.Zero, qkp)
	})
	rep.Results[len(rep.Results)-1].SpeedupVsRef = refQNs / fusedQNs
	lv := tensor.GetBytes(64 * 56 * 56)
	tensor.QuantizeAffineSlice(lv, src, af.InvScale(), af.Zero)
	qu8Bytes := float64(64*56*56 + oh*ow*qkp)
	refUNs := benchQuantIm2Col("quantized_im2col_u8_ref", qu8Bytes, func() {
		tensor.RefIm2ColU8Slice(qbuf, lv, 64, 56, 56, g, af.Zero, qkp)
	})
	fusedUNs := benchQuantIm2Col("quantized_im2col_u8_fused", qu8Bytes, func() {
		tensor.Im2ColU8Slice(qbuf, lv, 64, 56, 56, g, af.Zero, qkp)
	})
	rep.Results[len(rep.Results)-1].SpeedupVsRef = refUNs / fusedUNs
	tensor.PutBytes(lv)
	tensor.PutBytes(qbuf)

	// Whole-layer int8-vs-f32 ratio per model-zoo shape: each zoo GEMM
	// shape rebuilt as the conv layer that produces it, forward pass
	// measured f32 then int8 on the same layer. speedup_vs_ref is the
	// int8/f32 whole-layer ratio; what int8 buys an image is the
	// end-to-end benchmark's r18-int8-seq against r18-f32-seq.
	for _, cs := range ZooConvShapes {
		lrng := rand.New(rand.NewSource(4))
		lconv := nn.NewConv2D(cs.Name, cs.InC, cs.M, cs.KH, cs.KW, 1, cs.Pad, lrng)
		lx := tensor.New(1, cs.InC, cs.H, cs.W)
		lx.RandU(lrng, -1, 1)
		ly := tensor.New(lconv.OutShape(lx.Shape)...)
		lconv.ForwardInto(ly, lx, false)
		fr := testing.Benchmark(func(tb *testing.B) {
			for i := 0; i < tb.N; i++ {
				lconv.ForwardInto(ly, lx, false)
			}
		})
		if err := lconv.QuantizeInt8(); err != nil {
			continue
		}
		lconv.ForwardInto(ly, lx, false)
		qr := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				lconv.ForwardInto(ly, lx, false)
			}
		})
		lconv.ClearInt8()
		flops := 2 * float64(cs.M) * float64(cs.K) * float64(cs.N)
		add(Result{Name: "int8_whole_layer_" + cs.Name,
			Shape:   fmt.Sprintf("1x%dx%dx%d", cs.InC, cs.H, cs.W),
			Threads: maxProcs, NsPerOp: float64(qr.NsPerOp()),
			GFlops:       flops / float64(qr.NsPerOp()),
			AllocsPerOp:  qr.AllocsPerOp(),
			SpeedupVsRef: float64(fr.NsPerOp()) / float64(qr.NsPerOp())})
	}

	return rep
}

// WriteText renders a human-readable table.
func (r Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "kernel benchmarks (%s, %s, GOMAXPROCS=%d, tier=%s)\n",
		r.GoVersion, r.GOARCH, r.GOMAXPROCS, r.KernelTier)
	fmt.Fprintf(w, "%-36s %-16s %8s %12s %9s %7s %7s %9s %7s\n",
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
		gb := ""
		if res.GBPerSec > 0 {
			gb = fmt.Sprintf("%.2f", res.GBPerSec)
		}
		peak := ""
		if res.ShareOfPeak > 0 {
			peak = fmt.Sprintf("%.0f%%", 100*res.ShareOfPeak)
		}
		fmt.Fprintf(w, "%-36s %-16s %8d %12.0f %9s %7s %7d %9s %7s\n",
			res.Name, res.Shape, res.Threads, res.NsPerOp, gf, gb, res.AllocsPerOp, speed, peak)
	}
}
