package cliutil

import (
	"flag"
	"path/filepath"
	"testing"
)

func TestSimConfigByName(t *testing.T) {
	for short, want := range map[string]string{
		"vgg-sim": "VGG16-sim", "resnet-sim": "ResNet34-sim",
		"yolo-sim": "YOLO-sim", "fcn-sim": "FCN-sim", "charcnn-sim": "CharCNN-sim",
	} {
		cfg, err := SimConfigByName(short)
		if err != nil {
			t.Fatalf("%s: %v", short, err)
		}
		if cfg.Name != want {
			t.Fatalf("%s resolved to %s, want %s", short, cfg.Name, want)
		}
	}
	if _, err := SimConfigByName("bogus"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestFullConfigByName(t *testing.T) {
	cfg, err := FullConfigByName("VGG16")
	if err != nil || cfg.Name != "VGG16" {
		t.Fatalf("cfg %v err %v", cfg.Name, err)
	}
	if _, err := FullConfigByName("AlexNet"); err == nil {
		t.Fatal("unknown full model must error")
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("4x8")
	if err != nil || g.Rows != 4 || g.Cols != 8 {
		t.Fatalf("g %v err %v", g, err)
	}
	for _, bad := range []string{"", "4", "4x", "x8", "0x4", "axb"} {
		if _, err := ParseGrid(bad); err == nil {
			t.Fatalf("%q must fail", bad)
		}
	}
}

func TestModelFlagsBuild(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	mf := RegisterModelFlags(fs)
	if err := fs.Parse([]string{"-grid", "2x2", "-clip-hi", "4", "-quant", "4", "-quantized"}); err != nil {
		t.Fatal(err)
	}
	if mf.Name != "vgg-sim" || mf.Seed != 42 || mf.Weights != "" {
		t.Fatalf("defaults changed: %+v", mf)
	}
	m, err := mf.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.Opt.Grid.Rows != 2 || !m.Opt.Clipped() || m.Opt.QuantBits != 4 || !m.Int8InputOK() {
		t.Fatalf("model built without the recipe: %+v int8 input %v", m.Opt, m.Int8InputOK())
	}
	mf.Weights = filepath.Join(t.TempDir(), "missing.bin")
	if _, err := mf.Build(); err == nil {
		t.Fatal("a missing weight snapshot must fail the build")
	}
}
