package experiments

import (
	"fmt"
	"io"

	"adcnn/internal/compress"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/tensor"
	"adcnn/internal/trainer"
)

// PartitioningRow is one strategy of the Section 3 comparison.
type PartitioningRow struct {
	Strategy string
	TrafficB int64 // bytes moved between devices for one image
	Exact    bool  // reproduces the monolithic computation bit-for-bit
	Parallel bool  // reduces per-image latency (vs only throughput)
	Comment  string
}

// PartitioningResult compares the four partitioning strategies the paper
// walks through in Section 3 — batch, channel, naive spatial (halo
// exchange), FDSP — measured on a real trained sim-scale model with real
// tensors (channel traffic is analytic; it needs no execution to count).
type PartitioningResult struct {
	Model string
	Grid  fdsp.Grid
	Rows  []PartitioningRow
}

// ComparePartitioning trains a small model and measures each strategy's
// per-image inter-device traffic for the separable prefix.
func ComparePartitioning(setup AccuracySetup) (*PartitioningResult, error) {
	cfg := setup.Models[0]
	grid := setup.Grids[0]
	data, err := SynthSet(cfg, setup.Samples, setup.Seed)
	if err != nil {
		return nil, err
	}
	train, _ := data.Split(setup.Samples * 3 / 4)
	m, err := models.Build(cfg, models.Options{}, setup.Seed)
	if err != nil {
		return nil, err
	}
	tr := trainer.New(trainer.Params{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, BatchSize: 16, Seed: setup.Seed})
	tr.Train(m, train, setup.OrigEpochs)

	x, _ := train.Batch(0, 1)
	res := &PartitioningResult{Model: cfg.Name, Grid: grid}

	// Batch partitioning: whole images to different devices — zero
	// inter-device traffic but no latency parallelism.
	res.Rows = append(res.Rows, PartitioningRow{
		Strategy: "batch", TrafficB: 0, Exact: true, Parallel: false,
		Comment: "throughput only; per-image latency unchanged",
	})

	// Channel partitioning: each block's ofmap crosses the medium K-1
	// times (partial-sum exchange).
	var chBytes int64
	for _, b := range cfg.Profile()[:cfg.Separable] {
		chBytes += b.OfmapBytes * int64(grid.Tiles()-1)
	}
	res.Rows = append(res.Rows, PartitioningRow{
		Strategy: "channel", TrafficB: chBytes, Exact: true, Parallel: true,
		Comment: "whole feature maps exchanged every layer",
	})

	// Naive spatial partitioning: measured halo-strip traffic.
	blocks, err := m.ExchangeBlocks()
	if err != nil {
		return nil, err
	}
	full := m.Front.Forward(x, false)
	got, st, err := fdsp.RunWithExchange(blocks, x, grid)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, PartitioningRow{
		Strategy: "spatial+halo", TrafficB: st.HaloBytes,
		Exact: got.Equal(full, 1e-4), Parallel: true,
		Comment: fmt.Sprintf("%d exchange rounds", st.Rounds),
	})

	// FDSP: zero cross-tile traffic during the separable blocks; only the
	// compressed boundary output travels at the end.
	lo, hi := trainer.SearchClipBounds(m, train, 8, 0.9)
	p := compress.NewPipeline(4, hi-lo)
	tiles := grid.Layout(x.Shape[2], x.Shape[3])
	var fdspBytes int64
	for _, tl := range tiles {
		y := m.Front.Forward(fdsp.ExtractTile(x, tl), false)
		y = clipTensor(y, lo, hi)
		fdspBytes += int64(p.EncodedSize(y))
	}
	res.Rows = append(res.Rows, PartitioningRow{
		Strategy: "FDSP (ADCNN)", TrafficB: fdspBytes, Exact: false, Parallel: true,
		Comment: "no cross-tile traffic; compressed boundary only (retraining restores accuracy)",
	})
	return res, nil
}

// clipTensor applies ReLU[lo,hi] out of place.
func clipTensor(t *tensor.Tensor, lo, hi float32) *tensor.Tensor {
	out := tensor.New(t.Shape...)
	for i, v := range t.Data {
		switch {
		case v > hi:
			out.Data[i] = hi - lo
		case v >= lo:
			out.Data[i] = v - lo
		}
	}
	return out
}

// WriteText prints the comparison.
func (r *PartitioningResult) WriteText(w io.Writer) {
	fprintf(w, "Section 3 partitioning strategies on %s (%s partition, one image)\n", r.Model, r.Grid.String())
	fprintf(w, "  %-14s %12s %7s %9s  %s\n", "strategy", "traffic(B)", "exact", "parallel", "notes")
	for _, row := range r.Rows {
		fprintf(w, "  %-14s %12d %7v %9v  %s\n",
			row.Strategy, row.TrafficB, row.Exact, row.Parallel, row.Comment)
	}
}
