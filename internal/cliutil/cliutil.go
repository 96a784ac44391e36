// Package cliutil provides the small helpers the adcnn command-line
// tools share: resolving sim-scale model configs by short name, parsing
// partition grids, and the model recipe the Central and Conv daemons
// both take on the command line.
package cliutil

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"adcnn/internal/compress"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
)

// shortNames maps CLI model names to sim-scale config names.
var shortNames = map[string]string{
	"vgg-sim":     "VGG16-sim",
	"resnet-sim":  "ResNet34-sim",
	"yolo-sim":    "YOLO-sim",
	"fcn-sim":     "FCN-sim",
	"charcnn-sim": "CharCNN-sim",
}

// SimConfigByName resolves a CLI short name to its sim-scale config.
func SimConfigByName(name string) (models.Config, error) {
	want, ok := shortNames[name]
	if !ok {
		return models.Config{}, fmt.Errorf("unknown model %q (want vgg-sim|resnet-sim|yolo-sim|fcn-sim|charcnn-sim)", name)
	}
	for _, cfg := range models.SimScale() {
		if cfg.Name == want {
			return cfg, nil
		}
	}
	return models.Config{}, fmt.Errorf("config %q missing from zoo", want)
}

// FullConfigByName resolves a full-scale model by its paper name.
func FullConfigByName(name string) (models.Config, error) {
	for _, cfg := range models.FullScale() {
		if cfg.Name == name {
			return cfg, nil
		}
	}
	return models.Config{}, fmt.Errorf("unknown full-scale model %q", name)
}

// ParseGrid parses "RxC" partition syntax.
func ParseGrid(s string) (fdsp.Grid, error) {
	var g fdsp.Grid
	if _, err := fmt.Sscanf(s, "%dx%d", &g.Rows, &g.Cols); err != nil {
		return g, fmt.Errorf("bad grid %q (want e.g. 4x4): %w", s, err)
	}
	if err := g.Validate(); err != nil {
		return g, err
	}
	return g, nil
}

// ModelFlags is the model recipe adcnn-central and adcnn-conv share. The
// two ends must agree on every field — seed and weights fix the
// parameters, grid and clip/quant the tile format — so both register
// the same flags and build through the same steps.
type ModelFlags struct {
	Name      string
	Grid      string
	Seed      int64
	Weights   string
	ClipLo    float64
	ClipHi    float64
	Quant     int
	Quantized bool
}

// RegisterModelFlags adds -model, -grid, -seed, -weights, -clip-lo,
// -clip-hi, -quant and -quantized to fs. Call before flag.Parse.
func RegisterModelFlags(fs *flag.FlagSet) *ModelFlags {
	mf := &ModelFlags{}
	fs.StringVar(&mf.Name, "model", "vgg-sim", "model: vgg-sim|resnet-sim|yolo-sim|fcn-sim|charcnn-sim")
	fs.StringVar(&mf.Grid, "grid", "4x4", "FDSP partition, e.g. 4x4")
	fs.Int64Var(&mf.Seed, "seed", 42, "weight seed shared by the central and conv nodes")
	fs.StringVar(&mf.Weights, "weights", "", "optional weight snapshot (nn.SaveParams format) for the full net")
	fs.Float64Var(&mf.ClipLo, "clip-lo", 0, "clipped ReLU lower bound (0 with hi=0 disables)")
	fs.Float64Var(&mf.ClipHi, "clip-hi", 0, "clipped ReLU upper bound")
	fs.IntVar(&mf.Quant, "quant", 0, "quantization bits (0 = off)")
	fs.BoolVar(&mf.Quantized, "quantized", false, "int8 operating mode: quantize weights per channel, send quantized tiles and run them through the int8 GEMM path")
	return mf
}

// Build builds one model instance from the recipe: the seeded model,
// then the -weights snapshot, then with -quantized the int8 snapshot —
// last, because it freezes whatever the layers hold at that point.
func (mf *ModelFlags) Build() (*models.Model, error) {
	cfg, err := SimConfigByName(mf.Name)
	if err != nil {
		return nil, err
	}
	g, err := ParseGrid(mf.Grid)
	if err != nil {
		return nil, err
	}
	m, err := models.Build(cfg, models.Options{
		Grid: g, ClipLo: float32(mf.ClipLo), ClipHi: float32(mf.ClipHi),
		QuantBits: mf.Quant, Int8: mf.Quantized,
	}, mf.Seed)
	if err != nil {
		return nil, err
	}
	if mf.Weights != "" {
		f, err := os.Open(mf.Weights)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := m.Net.LoadParams(f); err != nil {
			return nil, fmt.Errorf("load weights %s: %w", mf.Weights, err)
		}
	}
	if mf.Quantized {
		if _, err := m.QuantizeInt8(); err != nil {
			return nil, fmt.Errorf("int8 quantize: %w", err)
		}
	}
	return m, nil
}

// Log reports m's operating point: int8 mode, and the boundary codec
// when the recipe clips and quantizes. Both daemons log the same lines,
// so mismatched flags between the two ends show up at once, and the
// codec's zero threshold — what the encoder classifies runs against —
// makes sparsity numbers reproducible offline.
func (mf *ModelFlags) Log(logger *slog.Logger, m *models.Model) {
	if mf.Quantized {
		logger.Info("int8 inference enabled", "int8_input", m.Int8InputOK())
	}
	if m.Opt.Clipped() && mf.Quant > 0 {
		span := m.Opt.ClipHi - m.Opt.ClipLo
		q := compress.NewPipeline(mf.Quant, span).Quantizer()
		logger.Info("boundary codec",
			"bits", mf.Quant, "range", span, "step", q.Step(), "zero_threshold", q.ZeroThreshold())
	}
}
