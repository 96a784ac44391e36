package main

import (
	"adcnn/internal/compress"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
)

// Every workload runs the same cluster shape: one process, one Central,
// convNodes Conv nodes behind real TCP loopback sockets, GOMAXPROCS
// left alone. The host-sizing rule is nodes = nproc (this benchmark was
// sized on a 2-vCPU host); the count is a constant so that two hosts
// run the same program.
const convNodes = 2

// Weights come from a fixed seed so the program under test sees only
// the generated inputs vary with -seed.
const weightSeed = 42

// inputImages is how many distinct images a run cycles through.
const inputImages = 16

// paperLinkMbps is the WiFi rate the paper measured (Section 7).
const paperLinkMbps = 87.72

// workload is one set of inputs and one operating mode of the cluster.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists; BENCHMARK.json
	// carries the same text.
	Why   string
	Model func() models.Config
	Grid  fdsp.Grid
	// Int8 selects Options.Int8 + Model.QuantizeInt8 on every model
	// instance: quantized uplink, levels downlink.
	Int8 bool
	// ClipHi > 0 with QuantBits > 0 puts the fused compress codec on the
	// downlink (clipped ReLU [0, ClipHi], QuantBits-bit levels, RLE).
	ClipHi    float32
	QuantBits int
	// Depth is the closed loop's client count: 1 drives Central.Infer
	// sequentially, >1 keeps that many images in core.Pipeline.
	Depth int
	// LinkMbps shapes each node's socket in both directions; 0 leaves
	// the loopback unshaped.
	LinkMbps float64
}

func (w workload) options() models.Options {
	return models.Options{Grid: w.Grid, ClipLo: 0, ClipHi: w.ClipHi, QuantBits: w.QuantBits, Int8: w.Int8}
}

func (w workload) codec() bool { return w.ClipHi > 0 && w.QuantBits > 0 }

// codecPipeline is the boundary codec of a workload with codec() true,
// built the way the worker builds it per tile.
func (w workload) codecPipeline() compress.Pipeline {
	return compress.NewPipeline(w.QuantBits, w.ClipHi)
}

// workloads are fixed by name; later issues cite them. Each stresses a
// different set of layers (see README.md for the layer ↔ metric table).
var workloads = []workload{
	{
		Name:  "r18-f32-seq",
		Why:   "full-scale ResNet18 224x224, 2x2 tiles, f32, one image in flight: compute-bound, f32 GEMM+im2col own the latency and core framing is under 2%",
		Model: models.ResNet18, Grid: fdsp.Grid{Rows: 2, Cols: 2}, Depth: 1,
	},
	{
		Name:  "r18-int8-seq",
		Why:   "same model and grid through int8 GEMM, quantized uplink and levels downlink: shows what int8 buys an image and catches f32 gains that cost int8",
		Model: models.ResNet18, Grid: fdsp.Grid{Rows: 2, Cols: 2}, Int8: true, Depth: 1,
	},
	{
		Name:  "vggsim-f32-pipe4",
		Why:   "32x32 VGG-sim, 4x4 tiles, 4 images in core.Pipeline: runtime-bound, sessions, demux, sched and fdsp do the work and kernels are under 10%",
		Model: models.VGGSim, Grid: fdsp.Grid{Rows: 4, Cols: 4}, Depth: 4,
	},
	{
		Name:  "r18-codec-wifi",
		Why:   "ResNet18 4x4 tiles, 4-bit clipped codec downlink, sockets paced to the paper's 87.72 Mbit/s: transfer is about compute, so wire bytes cost latency",
		Model: models.ResNet18, Grid: fdsp.Grid{Rows: 4, Cols: 4}, ClipHi: 6, QuantBits: 4, Depth: 1,
		LinkMbps: paperLinkMbps,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
