package experiments

import (
	"io"
	"math"

	"adcnn/internal/models"
	"adcnn/internal/nn"
	"adcnn/internal/tensor"
	"adcnn/internal/trainer"
)

// LocalityPoint is one depth of the feature-locality experiment.
type LocalityPoint struct {
	Block int
	// Radius90 is the input-space radius containing 90% of the
	// sensitivity (|∂activation/∂input|) mass of a centre unit.
	Radius90 float64
	// TheoreticalRF is half the analytic receptive field at that depth.
	TheoreticalRF int
}

// LocalityResult quantifies the paper's Section 2.3 observation: "early
// CNN layers tend to focus on detecting the local features … whereas
// later layers usually look for the high-level abstractions". The paper
// demonstrates it with deconvolution visualisations (Figure 2(d)); here
// the same property is measured as the effective receptive field of a
// centre unit at each layer-block depth — the mechanism that justifies
// applying FDSP to the early blocks only.
type LocalityResult struct {
	Model  string
	Points []LocalityPoint
}

// FeatureLocality trains a sim model briefly, then measures each block
// depth's sensitivity radius by backpropagating from a centre unit.
func FeatureLocality(setup AccuracySetup) (*LocalityResult, error) {
	cfg := setup.Models[0]
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
	res := &LocalityResult{Model: cfg.Name}
	// Freeze batch statistics: the probe must not let gradients flow
	// through batch means/variances, which couple every pixel.
	nn.FreezeBatchNorm(m.Front, true)
	defer nn.FreezeBatchNorm(m.Front, false)
	for b := 1; b <= cfg.Separable; b++ {
		prefix := nn.NewSequential("prefix", m.Front.Layers[:b]...)
		y := prefix.Forward(x, true)
		grad := tensor.New(y.Shape...)
		// Probe the strongest-responding unit — the paper's Section 2.3
		// method searches for the fragment with the largest filter
		// response; a dead (zero) unit would have no gradient at all.
		grad.Data[y.ArgMax()] = 1
		dx := prefix.Backward(grad)
		m.Net.ZeroGrad() // discard parameter gradients from the probe

		res.Points = append(res.Points, LocalityPoint{
			Block:         b,
			Radius90:      massRadius(dx, 0.9),
			TheoreticalRF: theoreticalRadius(cfg, b),
		})
	}
	return res, nil
}

// massRadius returns the smallest radius around the sensitivity centroid
// containing the given fraction of total |gradient| mass.
func massRadius(dx *tensor.Tensor, frac float64) float64 {
	c, h, w := dx.Shape[1], dx.Shape[2], dx.Shape[3]
	// Per-pixel mass summed over channels, plus the centroid.
	mass := make([]float64, h*w)
	var total, cy, cx float64
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := math.Abs(float64(dx.At(0, ch, y, x)))
				mass[y*w+x] += v
				total += v
				cy += v * float64(y)
				cx += v * float64(x)
			}
		}
	}
	if total == 0 {
		return 0
	}
	cy /= total
	cx /= total
	// Grow the radius until frac of the mass is inside.
	maxR := math.Hypot(float64(h), float64(w))
	for r := 0.0; r <= maxR; r += 0.5 {
		var inside float64
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if math.Hypot(float64(y)-cy, float64(x)-cx) <= r {
					inside += mass[y*w+x]
				}
			}
		}
		if inside >= frac*total {
			return r
		}
	}
	return maxR
}

// theoreticalRadius is the analytic receptive-field half-width of block
// b's output at the input.
func theoreticalRadius(cfg models.Config, b int) int {
	need := 0
	geoms := cfg.HaloGeoms(b)
	for i := len(geoms) - 1; i >= 0; i-- {
		need = need*geoms[i][1] + (geoms[i][0]-1)/2
	}
	return need
}

// WriteText prints the per-depth radii.
func (r *LocalityResult) WriteText(w io.Writer) {
	fprintf(w, "Feature locality (Section 2.3): effective receptive field vs depth, %s\n", r.Model)
	fprintf(w, "  %-6s %18s %16s\n", "block", "sensitivity r90", "theoretical RF/2")
	for _, p := range r.Points {
		fprintf(w, "  %-6d %18.1f %16d\n", p.Block, p.Radius90, p.TheoreticalRF)
	}
}
