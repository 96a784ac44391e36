// Package adcnn's repository-level benchmarks are the ablations of the
// design choices DESIGN.md calls out (pipelining, EWMA decay, allocation
// policy, halo reuse, quantization width, progressive retraining), which
// no other runner covers (run with `go test -bench=. -benchmem`). Each
// reports its quantity as a custom metric:
//
//	BenchmarkAblationPipelining   ... pipelined-ms=... sequential-ms=...
//
// The paper's tables and figures regenerate with `adcnn-bench -exp <name>`.
package adcnn

import (
	"testing"
	"time"

	"adcnn/internal/baseline"
	"adcnn/internal/cluster"
	"adcnn/internal/core"
	"adcnn/internal/experiments"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/perfmodel"
	"adcnn/internal/sched"
	"adcnn/internal/tensor"
)

// ---- Ablations (DESIGN.md Section 5) -------------------------------------

func newVGGSim(b *testing.B, mutate func(*core.SimConfig)) *core.Sim {
	b.Helper()
	cfg := core.SimConfig{
		Model:      models.VGG16().Systemized(),
		Grid:       fdsp.Grid{Rows: 8, Cols: 8},
		Nodes:      cluster.NewPiCluster(8),
		Central:    cluster.NewDevice(0, perfmodel.RaspberryPi()),
		Link:       perfmodel.WiFi(),
		Pruning:    true,
		PruneRatio: 0.032,
		Gamma:      0.9,
		Pipeline:   true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := core.NewSim(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func meanLatencyMs(s *core.Sim, n int) float64 {
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += s.RunImage().Latency
	}
	return float64(sum) / float64(n) / float64(time.Millisecond)
}

// BenchmarkAblationPipelining quantifies the compute/transfer overlap.
func BenchmarkAblationPipelining(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = meanLatencyMs(newVGGSim(b, func(c *core.SimConfig) {
			c.InputBytesPerValue = 4
		}), 10)
		without = meanLatencyMs(newVGGSim(b, func(c *core.SimConfig) {
			c.InputBytesPerValue = 4
			c.Pipeline = false
		}), 10)
	}
	b.ReportMetric(with, "pipelined-ms")
	b.ReportMetric(without, "sequential-ms")
}

// BenchmarkAblationGamma sweeps Algorithm 2's decay and reports how many
// images adaptation needs after a mid-run degradation.
func BenchmarkAblationGamma(b *testing.B) {
	adaptImages := func(gamma float64) float64 {
		s := newVGGSim(b, func(c *core.SimConfig) { c.Gamma = gamma })
		events := []cluster.ThrottleEvent{
			{Image: 5, DeviceID: 5, Fraction: 0.45},
			{Image: 5, DeviceID: 6, Fraction: 0.45},
		}
		results := s.RunImages(40, events)
		settled := results[39].Latency
		for i := 6; i < 40; i++ {
			if results[i].Latency <= settled*11/10 {
				return float64(i - 5)
			}
		}
		return 35
	}
	var fast, slow float64
	for i := 0; i < b.N; i++ {
		fast = adaptImages(0.9) // paper's setting
		slow = adaptImages(0.1)
	}
	b.ReportMetric(fast, "images-to-adapt(γ=0.9)")
	b.ReportMetric(slow, "images-to-adapt(γ=0.1)")
}

// BenchmarkAblationAllocator compares Algorithm 3 against round-robin
// under heterogeneity.
func BenchmarkAblationAllocator(b *testing.B) {
	speeds := []float64{12, 12, 12, 12, 5, 5, 3, 3}
	var greedy, rr float64
	for i := 0; i < b.N; i++ {
		a, err := sched.Allocate(64, speeds, 0, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		greedy = a.Bottleneck(speeds)
		roundRobin := make(sched.Allocation, len(speeds))
		for t := 0; t < 64; t++ {
			roundRobin[t%len(speeds)]++
		}
		rr = roundRobin.Bottleneck(speeds)
	}
	b.ReportMetric(greedy, "greedy-bottleneck")
	b.ReportMetric(rr, "roundrobin-bottleneck")
}

// BenchmarkAblationHaloReuse shows why AOFL needs the multi-round reuse
// scheduling: naive halo extension explodes the compute overhead.
func BenchmarkAblationHaloReuse(b *testing.B) {
	cfg := models.VGG16()
	grid := experiments.AOFLGrid(cfg.Name, 8)
	var withReuse, naive float64
	for i := 0; i < b.N; i++ {
		withReuse = float64(baseline.AOFLWithReuse(cfg, grid, 8,
			perfmodel.RaspberryPi(), perfmodel.WiFi(), baseline.DefaultHaloReuse).Total().Milliseconds())
		naive = float64(baseline.AOFLWithReuse(cfg, grid, 8,
			perfmodel.RaspberryPi(), perfmodel.WiFi(), 0).Total().Milliseconds())
	}
	b.ReportMetric(withReuse, "aofl-reuse-ms")
	b.ReportMetric(naive, "aofl-naive-ms")
}

// BenchmarkAblationQuantBits sweeps the quantization width's effect on
// the simulated wire volume (latency at 12.66 Mbps).
func BenchmarkAblationQuantBits(b *testing.B) {
	ratioFor := map[int]float64{2: 0.016, 4: 0.032, 8: 0.064, 16: 0.128}
	out := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for bits, ratio := range ratioFor {
			s := newVGGSim(b, func(c *core.SimConfig) {
				c.Link = perfmodel.WiFiSlow()
				c.PruneRatio = ratio
			})
			out[bits] = meanLatencyMs(s, 5)
		}
	}
	b.ReportMetric(out[4], "ms@4bit")
	b.ReportMetric(out[16], "ms@16bit")
}

// BenchmarkAblationProgressive compares Algorithm 1 against one-shot
// retraining (all modifications applied at once, same total epoch
// budget) — the paper reports one-shot stalls 4-5% below the original.
func BenchmarkAblationProgressive(b *testing.B) {
	var prog, oneShot float64
	for i := 0; i < b.N; i++ {
		setup := experiments.QuickAccuracySetup()
		p, o, err := experiments.ProgressiveVsOneShot(setup)
		if err != nil {
			b.Fatal(err)
		}
		prog, oneShot = p, o
	}
	b.ReportMetric(prog, "progressive-metric")
	b.ReportMetric(oneShot, "oneshot-metric")
}

// BenchmarkHaloExchangeTraffic measures the naive spatial partition's
// halo bytes on a real model (Section 3.1's overhead, which FDSP
// eliminates).
func BenchmarkHaloExchangeTraffic(b *testing.B) {
	m, err := models.Build(models.VGGSim(), models.Options{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := m.ExchangeBlocks()
	if err != nil {
		b.Fatal(err)
	}
	x := testInput()
	var haloKB float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := fdsp.RunWithExchange(blocks, x, fdsp.Grid{Rows: 4, Cols: 4})
		if err != nil {
			b.Fatal(err)
		}
		haloKB = float64(st.HaloBytes) / 1024
	}
	b.ReportMetric(haloKB, "halo-KB/image")
}

// BenchmarkSimThroughput measures the virtual-time simulator itself.
func BenchmarkSimThroughput(b *testing.B) {
	s := newVGGSim(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunImage()
	}
}

func testInput() *tensor.Tensor {
	t := tensor.New(1, 3, 32, 32)
	for i := range t.Data {
		t.Data[i] = float32(i%13) * 0.1
	}
	return t
}
