// Package codecbench measures the boundary codec — the fused single-pass
// clip→quant→RLE encoder and LUT decoder against the retained scalar
// reference pipeline — across the sparsity levels the clipped ReLU
// actually produces, and renders the results as a machine-readable
// report. adcnn-bench (-exp compress) writes the report to
// BENCH_compress.json so the codec perf trajectory is tracked across PRs.
package codecbench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"adcnn/internal/compress"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// Result is one benchmark measurement.
type Result struct {
	Name         string  `json:"name"`
	Sparsity     float64 `json:"sparsity"`
	Bits         int     `json:"bits"`
	Elements     int     `json:"elements"`
	NsPerOp      float64 `json:"ns_per_op"`
	MBPerSec     float64 `json:"mb_per_sec"` // raw float32 bytes through the codec
	AllocsPerOp  int64   `json:"allocs_per_op"`
	SpeedupVsRef float64 `json:"speedup_vs_ref,omitempty"`
	Ratio        float64 `json:"compression_ratio,omitempty"`
}

// Report is the full codec benchmark suite output, with host metadata so
// BENCH_*.json files are comparable across machines.
type Report struct {
	Timestamp string `json:"timestamp"`
	telemetry.Host
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}

// Sparsities are the benchmark's activation-sparsity operating points:
// the paper's boundary tensors run ~0.8 zero after the clipped ReLU;
// 0.5 and 0.95 bracket the regime.
var Sparsities = []float64{0.5, 0.8, 0.95}

// tileElements sizes the benchmark tensor like a real boundary tile
// (e.g. a 256-channel 16×16 Front output).
const tileElements = 256 * 16 * 16

// sparse builds a clipped-ReLU-shaped tensor with the given zero
// fraction over [0, rng].
func sparse(seed int64, n int, sparsity float64, rng float32) *tensor.Tensor {
	r := rand.New(rand.NewSource(seed))
	t := tensor.New(1, 256, 16, 16)
	if t.Len() != n {
		t = tensor.New(1, 1, 1, n)
	}
	for i := range t.Data {
		if r.Float64() >= sparsity {
			t.Data[i] = rng * float32(r.Float64())
		}
	}
	return t
}

func bench(f func()) (float64, int64) {
	r := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			f()
		}
	})
	return float64(r.NsPerOp()), r.AllocsPerOp()
}

// Run executes the codec suite: fused vs reference encode and decode at
// each sparsity point, 4-bit quantization (the paper's setting).
func Run() Report {
	rep := Report{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Host:       telemetry.HostInfo(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	const bits = 4
	const rng = 6.0
	p := compress.NewPipeline(bits, rng)
	mbps := func(ns float64) float64 {
		return 4 * float64(tileElements) / ns * 1e9 / 1e6
	}

	for i, sp := range Sparsities {
		x := sparse(int64(i+1), tileElements, sp, rng)
		ratio := p.Ratio(x)

		refEncNs, refEncAl := bench(func() {
			if _, err := compress.RefEncodeForBench(p, x); err != nil {
				panic(err)
			}
		})
		rep.Results = append(rep.Results, Result{
			Name: "encode_ref", Sparsity: sp, Bits: bits, Elements: tileElements,
			NsPerOp: refEncNs, MBPerSec: mbps(refEncNs), AllocsPerOp: refEncAl,
			Ratio: ratio,
		})

		buf := tensor.GetBytes(p.MaxEncodedSize(x))
		var encErr error
		fusedEncNs, fusedEncAl := bench(func() {
			buf, encErr = p.EncodeInto(buf[:0], x)
			if encErr != nil {
				panic(encErr)
			}
		})
		rep.Results = append(rep.Results, Result{
			Name: "encode_fused", Sparsity: sp, Bits: bits, Elements: tileElements,
			NsPerOp: fusedEncNs, MBPerSec: mbps(fusedEncNs), AllocsPerOp: fusedEncAl,
			SpeedupVsRef: refEncNs / fusedEncNs, Ratio: ratio,
		})

		payload, err := p.Encode(x)
		if err != nil {
			panic(err)
		}
		refDecNs, refDecAl := bench(func() {
			if _, err := compress.RefDecodeForBench(payload); err != nil {
				panic(err)
			}
		})
		rep.Results = append(rep.Results, Result{
			Name: "decode_ref", Sparsity: sp, Bits: bits, Elements: tileElements,
			NsPerOp: refDecNs, MBPerSec: mbps(refDecNs), AllocsPerOp: refDecAl,
		})

		var dst tensor.Tensor
		if err := compress.DecodeInto(&dst, payload); err != nil { // warm storage + LUT
			panic(err)
		}
		fusedDecNs, fusedDecAl := bench(func() {
			if err := compress.DecodeInto(&dst, payload); err != nil {
				panic(err)
			}
		})
		rep.Results = append(rep.Results, Result{
			Name: "decode_fused", Sparsity: sp, Bits: bits, Elements: tileElements,
			NsPerOp: fusedDecNs, MBPerSec: mbps(fusedDecNs), AllocsPerOp: fusedDecAl,
			SpeedupVsRef: refDecNs / fusedDecNs,
		})
		tensor.PutBytes(buf)
	}
	return rep
}

// WriteText renders a human-readable table.
func (r Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "boundary codec benchmarks (%s, %s, GOMAXPROCS=%d)\n",
		r.GoVersion, r.GOARCH, r.GOMAXPROCS)
	fmt.Fprintf(w, "%-14s %9s %5s %9s %12s %9s %7s %8s %7s\n",
		"name", "sparsity", "bits", "elems", "ns/op", "MB/s", "allocs", "vs-ref", "ratio")
	for _, res := range r.Results {
		speed := ""
		if res.SpeedupVsRef > 0 {
			speed = fmt.Sprintf("%.2fx", res.SpeedupVsRef)
		}
		ratio := ""
		if res.Ratio > 0 {
			ratio = fmt.Sprintf("%.3f", res.Ratio)
		}
		fmt.Fprintf(w, "%-14s %9.2f %5d %9d %12.0f %9.1f %7d %8s %7s\n",
			res.Name, res.Sparsity, res.Bits, res.Elements, res.NsPerOp,
			res.MBPerSec, res.AllocsPerOp, speed, ratio)
	}
}
