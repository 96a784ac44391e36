package experiments

import (
	"io"
	"math/rand"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/tensor"
	"adcnn/internal/trainer"
)

// FailurePoint is one cell of the resilience sweep: the model's metric
// when a fraction of tiles is zero-filled (the Central node's behaviour
// when Conv nodes miss the deadline or die).
type FailurePoint struct {
	MissingTiles int
	Metric       float64
}

// FailureResult quantifies ADCNN's graceful degradation — the accuracy
// side of the paper's fault-tolerance claim, which its evaluation only
// covers from the latency side.
type FailureResult struct {
	Model  string
	Grid   fdsp.Grid
	Points []FailurePoint
}

// FailureSweep trains a partitioned model (with progressive retraining)
// and evaluates it with 0..maxMissing tiles zero-filled at the Front/Back
// boundary, mimicking deadline misses.
func FailureSweep(setup AccuracySetup, maxMissing int) (*FailureResult, error) {
	cfg := setup.Models[0]
	grid := setup.Grids[0]
	data, err := SynthSet(cfg, setup.Samples, setup.Seed)
	if err != nil {
		return nil, err
	}
	train, test := data.Split(setup.Samples * 3 / 4)

	ori, err := models.Build(cfg, models.Options{}, setup.Seed)
	if err != nil {
		return nil, err
	}
	tr := trainer.New(trainer.Params{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, BatchSize: 16, Seed: setup.Seed})
	tr.Train(ori, train, setup.OrigEpochs)
	lo, hi := trainer.SuggestClipBounds(ori, train, 8, 0.6, 0.995)
	pres, err := trainer.ProgressiveRetrain(tr, cfg, ori, train, test, trainer.ProgressiveConfig{
		Target:            models.Options{Grid: grid, ClipLo: lo, ClipHi: hi, QuantBits: setup.QuantBits},
		Tolerance:         setup.Tolerance,
		MaxEpochsPerStage: setup.StageEpochs,
		Seed:              setup.Seed + 7,
	})
	if err != nil {
		return nil, err
	}
	m := pres.Final

	res := &FailureResult{Model: cfg.Name, Grid: grid}
	rng := rand.New(rand.NewSource(setup.Seed + 99))
	for missing := 0; missing <= maxMissing && missing <= grid.Tiles(); missing++ {
		metric := evalWithMissingTiles(m, test, grid, missing, rng)
		res.Points = append(res.Points, FailurePoint{MissingTiles: missing, Metric: metric})
	}
	return res, nil
}

// evalWithMissingTiles runs distributed-style inference where `missing`
// random tiles' intermediate results are replaced by zeros.
func evalWithMissingTiles(m *models.Model, test interface {
	Len() int
	Batch(i, n int) (*tensor.Tensor, []int)
}, grid fdsp.Grid, missing int, rng *rand.Rand) float64 {

	n := test.Len()
	if n > 48 {
		n = 48
	}
	var weighted float64
	for i := 0; i < n; i++ {
		x, labels := test.Batch(i, 1)
		tiles := grid.Layout(x.Shape[2], x.Shape[3])
		outs := make([]*tensor.Tensor, len(tiles))
		for ti, tl := range tiles {
			y := m.Front.Forward(fdsp.ExtractTile(x, tl), false)
			y = m.Boundary.Forward(y, false)
			outs[ti] = y
		}
		// Zero-fill a random subset.
		perm := rng.Perm(len(tiles))
		for _, ti := range perm[:missing] {
			outs[ti] = tensor.New(outs[ti].Shape...)
		}
		merged := fdsp.Reassemble(outs, grid)
		logits := m.Back.Forward(merged, false)
		weighted += m.Metric(logits, labels)
	}
	return weighted / float64(n)
}

// WriteText prints the sweep.
func (r *FailureResult) WriteText(w io.Writer) {
	fprintf(w, "Failure resilience (extension): %s %s, metric vs zero-filled tiles\n",
		r.Model, r.Grid.String())
	for _, p := range r.Points {
		fprintf(w, "  missing %2d/%d tiles: metric %.3f\n", p.MissingTiles, r.Grid.Tiles(), p.Metric)
	}
}
