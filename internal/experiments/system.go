package experiments

import (
	"io"
	"strconv"
	"time"

	"adcnn/internal/baseline"
	"adcnn/internal/cluster"
	"adcnn/internal/core"
	"adcnn/internal/models"
	"adcnn/internal/perfmodel"
	"adcnn/internal/stats"
)

// Fig11Row is one model's latency comparison (Figure 11).
type Fig11Row struct {
	Model                string
	ADCNNMs, ADCNNCI     float64
	SingleDeviceMs       float64
	RemoteCloudMs        float64
	SpeedupVsSingle      float64
	SpeedupVsRemoteCloud float64
}

// Figure11Result compares ADCNN against the single-device and
// remote-cloud schemes on all five models.
type Figure11Result struct {
	Rows   []Fig11Row
	Images int
}

// Figure11 measures mean end-to-end latency over n images per model.
func Figure11(n int, o SimOptions) (*Figure11Result, error) {
	res := &Figure11Result{Images: n}
	for _, cfg := range models.FullScale() {
		sim, _, _, err := NewADCNNSim(cfg, o)
		if err != nil {
			return nil, err
		}
		mean, ci, _ := MeasureLatency(sim, n)
		single := baseline.SingleDevice(cfg, perfmodel.RaspberryPi())
		cloud := baseline.RemoteCloud(cfg, perfmodel.CloudServer(), perfmodel.WAN())
		res.Rows = append(res.Rows, Fig11Row{
			Model:   cfg.Name,
			ADCNNMs: mean, ADCNNCI: ci,
			SingleDeviceMs:       ms(single.Total()),
			RemoteCloudMs:        ms(cloud.Total()),
			SpeedupVsSingle:      ms(single.Total()) / mean,
			SpeedupVsRemoteCloud: ms(cloud.Total()) / mean,
		})
	}
	return res, nil
}

// MeanSpeedups returns the average speedups across models (the paper
// headlines 6.68× vs single device and 4.42× vs remote cloud).
func (r *Figure11Result) MeanSpeedups() (vsSingle, vsCloud float64) {
	for _, row := range r.Rows {
		vsSingle += row.SpeedupVsSingle
		vsCloud += row.SpeedupVsRemoteCloud
	}
	n := float64(len(r.Rows))
	return vsSingle / n, vsCloud / n
}

// WriteText prints the comparison.
func (r *Figure11Result) WriteText(w io.Writer) {
	fprintf(w, "Figure 11: end-to-end latency, mean over %d images (ms, ±CI95)\n", r.Images)
	fprintf(w, "  %-10s %14s %14s %14s %9s %9s\n",
		"model", "ADCNN", "single-dev", "remote-cloud", "×single", "×cloud")
	for _, row := range r.Rows {
		fprintf(w, "  %-10s %9.1f±%-4.1f %14.1f %14.1f %9.2f %9.2f\n",
			row.Model, row.ADCNNMs, row.ADCNNCI, row.SingleDeviceMs, row.RemoteCloudMs,
			row.SpeedupVsSingle, row.SpeedupVsRemoteCloud)
	}
	s, c := r.MeanSpeedups()
	fprintf(w, "  mean speedup: %.2fx vs single device, %.2fx vs remote cloud\n", s, c)
}

// Table3Result is the VGG16 latency breakdown of the three schemes.
type Table3Result struct {
	Rows []baseline.Breakdown
}

// Table3 reproduces the transmission/computation split for VGG16.
func Table3(o SimOptions) (*Table3Result, error) {
	cfg := models.VGG16()
	sim, _, _, err := NewADCNNSim(cfg, o)
	if err != nil {
		return nil, err
	}
	_, _, results := MeasureLatency(sim, 20)
	var xfer, comp time.Duration
	for _, r := range results {
		xfer += r.InputXfer + r.OutputXfer
		comp += r.ConvCompute + r.BackCompute
	}
	n := time.Duration(len(results))
	rows := []baseline.Breakdown{
		{Scheme: "ADCNN", Transmission: xfer / n, Computation: comp / n},
		baseline.SingleDevice(cfg, perfmodel.RaspberryPi()),
		baseline.RemoteCloud(cfg, perfmodel.CloudServer(), perfmodel.WAN()),
	}
	return &Table3Result{Rows: rows}, nil
}

// WriteText prints Table 3.
func (r *Table3Result) WriteText(w io.Writer) {
	fprintf(w, "Table 3: VGG16 latency breakdown\n")
	fprintf(w, "  %-14s %22s %14s\n", "scheme", "input/output transfer", "computation")
	for _, b := range r.Rows {
		fprintf(w, "  %-14s %20.2fms %12.2fms\n", b.Scheme, ms(b.Transmission), ms(b.Computation))
	}
}

// Fig12Row is one model's pruning effect at one link rate.
type Fig12Row struct {
	Model        string
	LinkMbps     float64
	WithMs       float64
	WithoutMs    float64
	ReductionPct float64
}

// Figure12Result shows the latency effect of output pruning at two
// transmission rates.
type Figure12Result struct{ Rows []Fig12Row }

// Figure12 measures latency with and without pruning at 87.72 and
// 12.66 Mbps for all five models.
func Figure12(n int, seed int64) (*Figure12Result, error) {
	res := &Figure12Result{}
	for _, link := range []perfmodel.LinkModel{perfmodel.WiFi(), perfmodel.WiFiSlow()} {
		for _, cfg := range models.FullScale() {
			var lat [2]float64
			for i, prune := range []bool{true, false} {
				o := SimOptions{Nodes: 8, Link: link, Pruning: prune, Seed: seed}
				sim, _, _, err := NewADCNNSim(cfg, o)
				if err != nil {
					return nil, err
				}
				mean, _, _ := MeasureLatency(sim, n)
				lat[i] = mean
			}
			res.Rows = append(res.Rows, Fig12Row{
				Model: cfg.Name, LinkMbps: link.BandwidthMbps,
				WithMs: lat[0], WithoutMs: lat[1],
				ReductionPct: 100 * (1 - lat[0]/lat[1]),
			})
		}
	}
	return res, nil
}

// MeanReduction returns the average latency reduction at one link rate.
func (r *Figure12Result) MeanReduction(mbps float64) float64 {
	var sum float64
	n := 0
	for _, row := range r.Rows {
		if row.LinkMbps == mbps {
			sum += row.ReductionPct
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WriteText prints Figure 12.
func (r *Figure12Result) WriteText(w io.Writer) {
	fprintf(w, "Figure 12: effect of pruning under different transmission rates\n")
	fprintf(w, "  %-10s %10s %12s %12s %10s\n", "model", "link Mbps", "pruned(ms)", "raw(ms)", "saving")
	for _, row := range r.Rows {
		fprintf(w, "  %-10s %10.2f %12.1f %12.1f %9.1f%%\n",
			row.Model, row.LinkMbps, row.WithMs, row.WithoutMs, row.ReductionPct)
	}
	fprintf(w, "  mean saving: %.1f%% @87.72Mbps, %.1f%% @12.66Mbps\n",
		r.MeanReduction(87.72), r.MeanReduction(12.66))
}

// Fig13Row is one cluster size of Figure 13.
type Fig13Row struct {
	Nodes     int // 0 = single-device scheme
	LatencyMs float64
	Speedup   float64
	EnergyJ   float64 // per Conv node, per image
	PeakMemMB float64 // per Conv node
}

// Figure13Result is the scalability + energy/memory experiment.
type Figure13Result struct{ Rows []Fig13Row }

// Figure13 sweeps the number of Conv nodes for VGG16.
func Figure13(n int, o SimOptions) (*Figure13Result, error) {
	cfg := models.VGG16()
	single := baseline.SingleDevice(cfg, perfmodel.RaspberryPi())
	energyModel := perfmodel.PiEnergy()

	res := &Figure13Result{}
	// Single-device reference row: the device is busy the whole time and
	// holds the full model's working set.
	res.Rows = append(res.Rows, Fig13Row{
		Nodes:     0,
		LatencyMs: ms(single.Total()),
		Speedup:   1,
		EnergyJ:   energyModel.Energy(single.Total(), single.Total()),
		PeakMemMB: float64(largestWorkingSet(cfg)) / 1e6,
	})
	for _, k := range []int{2, 4, 6, 8} {
		opts := o
		opts.Nodes = k
		sim, nodes, _, err := NewADCNNSim(cfg, opts)
		if err != nil {
			return nil, err
		}
		mean, _, _ := MeasureLatency(sim, n)
		elapsed := sim.Elapsed()
		row := Fig13Row{
			Nodes:     k,
			LatencyMs: mean,
			Speedup:   ms(single.Total()) / mean,
		}
		// Energy and memory of one representative Conv node.
		d := nodes[0]
		row.EnergyJ = d.Energy(energyModel, elapsed) / float64(n)
		row.PeakMemMB = float64(d.PeakMem()+cfg.Systemized().FrontWeightBytes()) / 1e6
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// largestWorkingSet approximates a single device's peak transient memory:
// the largest block ifmap+ofmap plus all weights.
func largestWorkingSet(cfg models.Config) int64 {
	var peak int64
	var weights int64
	for _, b := range cfg.Profile() {
		if v := b.IfmapBytes + b.OfmapBytes; v > peak {
			peak = v
		}
		weights += b.WeightBytes
	}
	weights += cfg.HeadProfile().WeightBytes
	return peak + weights
}

// WriteText prints Figure 13.
func (r *Figure13Result) WriteText(w io.Writer) {
	fprintf(w, "Figure 13: scalability, energy and memory vs number of Conv nodes (VGG16)\n")
	fprintf(w, "  %-6s %12s %9s %12s %12s\n", "nodes", "latency(ms)", "speedup", "energy(J)", "peakMem(MB)")
	for _, row := range r.Rows {
		label := "S"
		if row.Nodes > 0 {
			label = strconv.Itoa(row.Nodes)
		}
		fprintf(w, "  %-6s %12.1f %9.2f %12.2f %12.1f\n",
			label, row.LatencyMs, row.Speedup, row.EnergyJ, row.PeakMemMB)
	}
}

// Fig14Row is one model of Figure 14.
type Fig14Row struct {
	Model            string
	ADCNNMs, ADCNNCI float64
	NeurosurgeonMs   float64
	AOFLMs           float64
}

// Figure14Result compares ADCNN with Neurosurgeon and AOFL.
type Figure14Result struct{ Rows []Fig14Row }

// Figure14 runs the three partitioning frameworks on YOLO, VGG16 and
// ResNet34.
func Figure14(n int, o SimOptions) (*Figure14Result, error) {
	res := &Figure14Result{}
	for _, cfg := range []models.Config{models.YOLO(), models.VGG16(), models.ResNet34()} {
		sim, _, _, err := NewADCNNSim(cfg, o)
		if err != nil {
			return nil, err
		}
		mean, ci, _ := MeasureLatency(sim, n)
		ns := baseline.Neurosurgeon(cfg, perfmodel.RaspberryPi(), perfmodel.CloudServer(), perfmodel.WAN())
		// AOFL partitions the input into one piece per device (paper
		// Section 7.4), unlike ADCNN's fine-grained tile grid.
		aofl := baseline.AOFL(cfg, AOFLGrid(cfg.Name, o.Nodes), o.Nodes, perfmodel.RaspberryPi(), o.Link)
		res.Rows = append(res.Rows, Fig14Row{
			Model: cfg.Name, ADCNNMs: mean, ADCNNCI: ci,
			NeurosurgeonMs: ms(ns.Total()), AOFLMs: ms(aofl.Total()),
		})
	}
	return res, nil
}

// MeanFactors returns ADCNN's mean advantage over the two baselines
// (paper: 2.8× vs Neurosurgeon, 1.6× vs AOFL).
func (r *Figure14Result) MeanFactors() (vsNS, vsAOFL float64) {
	for _, row := range r.Rows {
		vsNS += row.NeurosurgeonMs / row.ADCNNMs
		vsAOFL += row.AOFLMs / row.ADCNNMs
	}
	n := float64(len(r.Rows))
	return vsNS / n, vsAOFL / n
}

// WriteText prints Figure 14.
func (r *Figure14Result) WriteText(w io.Writer) {
	fprintf(w, "Figure 14: ADCNN vs Neurosurgeon vs AOFL (ms, ±CI95)\n")
	fprintf(w, "  %-10s %14s %14s %14s\n", "model", "ADCNN", "Neurosurgeon", "AOFL")
	for _, row := range r.Rows {
		fprintf(w, "  %-10s %9.1f±%-4.1f %14.1f %14.1f\n",
			row.Model, row.ADCNNMs, row.ADCNNCI, row.NeurosurgeonMs, row.AOFLMs)
	}
	ns, aofl := r.MeanFactors()
	fprintf(w, "  ADCNN advantage: %.2fx vs Neurosurgeon, %.2fx vs AOFL\n", ns, aofl)
}

// Fig15Point is one image of the Figure 15 time series.
type Fig15Point struct {
	Image       int
	LatencyMs   float64
	Alloc       []int
	Utilization []float64 // Figure 15(a): per-node effective CPU usage
}

// Figure15Result is the dynamic-adaptation experiment.
type Figure15Result struct {
	Points       []Fig15Point
	DegradeAt    int
	BeforeMs     float64 // steady latency before degradation
	PeakMs       float64 // latency right after degradation
	SettledMs    float64 // latency after adaptation
	AllocBefore  []int
	AllocSettled []int
}

// Figure15 processes images images of VGG16 on 8 nodes and throttles
// nodes 5-6 by 55% and 7-8 by 76% at the midpoint, exactly the paper's
// CPUlimit scenario.
func Figure15(images int, o SimOptions) (*Figure15Result, error) {
	sim, _, _, err := NewADCNNSim(models.VGG16(), o)
	if err != nil {
		return nil, err
	}
	mid := images / 2
	events := []cluster.ThrottleEvent{
		{Image: mid, DeviceID: 5, Fraction: 0.45},
		{Image: mid, DeviceID: 6, Fraction: 0.45},
		{Image: mid, DeviceID: 7, Fraction: 0.24},
		{Image: mid, DeviceID: 8, Fraction: 0.24},
	}
	results := sim.RunImages(images, events)
	res := &Figure15Result{DegradeAt: mid}
	for i, r := range results {
		res.Points = append(res.Points, Fig15Point{
			Image: i, LatencyMs: ms(r.Latency),
			Alloc:       append([]int(nil), r.Alloc...),
			Utilization: append([]float64(nil), r.Utilization...),
		})
	}
	res.BeforeMs = stats.Mean(latWindow(results, mid-5, mid))
	res.PeakMs = ms(results[mid].Latency)
	res.SettledMs = stats.Mean(latWindow(results, images-5, images))
	res.AllocBefore = append([]int(nil), results[mid-1].Alloc...)
	res.AllocSettled = append([]int(nil), results[images-1].Alloc...)
	return res, nil
}

// fmtUtil renders a utilization vector as percentages.
func fmtUtil(us []float64) string {
	out := "["
	for i, u := range us {
		if i > 0 {
			out += " "
		}
		out += strconv.Itoa(int(u*100+0.5)) + "%"
	}
	return out + "]"
}

func latWindow(rs []core.ImageResult, lo, hi int) []float64 {
	out := make([]float64, 0, hi-lo)
	for _, r := range rs[lo:hi] {
		out = append(out, ms(r.Latency))
	}
	return out
}

// WriteText prints the Figure 15 summary and time series.
func (r *Figure15Result) WriteText(w io.Writer) {
	fprintf(w, "Figure 15: impact of node-performance variation (degrade at image %d)\n", r.DegradeAt)
	fprintf(w, "  steady before: %.1f ms | peak after degrade: %.1f ms | settled: %.1f ms\n",
		r.BeforeMs, r.PeakMs, r.SettledMs)
	fprintf(w, "  tiles before:  %v\n", r.AllocBefore)
	fprintf(w, "  tiles settled: %v\n", r.AllocSettled)
	if n := len(r.Points); n > 0 {
		fprintf(w, "  CPU util before:  %s\n", fmtUtil(r.Points[r.DegradeAt-1].Utilization))
		fprintf(w, "  CPU util settled: %s\n", fmtUtil(r.Points[n-1].Utilization))
	}
	fprintf(w, "  series (image latencyMs):")
	for _, p := range r.Points {
		if p.Image%5 == 0 {
			fprintf(w, " %d:%.0f", p.Image, p.LatencyMs)
		}
	}
	fprintf(w, "\n")
}
