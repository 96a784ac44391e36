package experiments

import (
	"adcnn/internal/models"
	"adcnn/internal/trainer"
)

// ProgressiveVsOneShot runs the Section 5 ablation: starting from the
// same trained original model, retrain the fully-modified architecture
// either progressively (Algorithm 1, one modification per stage) or in
// one shot with the same total epoch budget, and return both final
// metrics. The paper motivates Algorithm 1 by the one-shot variant
// stalling 4-5% below the original accuracy.
func ProgressiveVsOneShot(setup AccuracySetup) (progressive, oneShot float64, err error) {
	cfg := setup.Models[0]
	grid := setup.Grids[0]
	data, err := SynthSet(cfg, setup.Samples, setup.Seed)
	if err != nil {
		return 0, 0, err
	}
	train, test := data.Split(setup.Samples * 3 / 4)
	ori, err := models.Build(cfg, models.Options{}, setup.Seed)
	if err != nil {
		return 0, 0, err
	}
	tr := trainer.New(trainer.Params{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, BatchSize: 16, Seed: setup.Seed})
	tr.Train(ori, train, setup.OrigEpochs)
	lo, hi := trainer.SearchClipBounds(ori, train, 8, 0.95)
	pc := trainer.ProgressiveConfig{
		Target:            models.Options{Grid: grid, ClipLo: lo, ClipHi: hi, QuantBits: setup.QuantBits},
		Tolerance:         setup.Tolerance,
		MaxEpochsPerStage: setup.StageEpochs,
		Seed:              setup.Seed + 7,
	}
	p, err := trainer.ProgressiveRetrain(tr, cfg, ori, train, test, pc)
	if err != nil {
		return 0, 0, err
	}
	o, err := trainer.OneShotRetrain(tr, cfg, ori, train, test, pc)
	if err != nil {
		return 0, 0, err
	}
	return p.FinalMetric(), o.FinalMetric(), nil
}
