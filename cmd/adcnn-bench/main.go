// Command adcnn-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	adcnn-bench -exp all            # everything (accuracy experiments train models; minutes)
//	adcnn-bench -exp fig11          # one experiment
//	adcnn-bench -exp accuracy -quick
//
// Experiments are listed by -h and by the error for an unknown -exp
// (accuracy = fig10 + table1 + table2). The ones that produce a report
// write it to -out, by default BENCH_<exp>.json.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"adcnn/internal/compress/codecbench"
	"adcnn/internal/core"
	"adcnn/internal/experiments"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor/kernelbench"
)

// env is what an experiment runs against: the parsed flags and stdout.
type env struct {
	w      io.Writer
	images int
	quick  bool
	seed   int64
	out    string // -out; empty selects the per-experiment default
	opts   experiments.SimOptions
	trace  *telemetry.Trace // nil without -trace
}

// report writes an experiment's JSON report to -out, or to
// BENCH_<name>.json when the flag is unset.
func (e *env) report(name string, rep any) error {
	path := reportPath(e.out, name)
	if err := telemetry.WriteJSON(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(e.w, "wrote %s\n", path)
	return nil
}

func reportPath(out, name string) string {
	if out != "" {
		return out
	}
	return "BENCH_" + name + ".json"
}

// text adapts the experiments that only print a result.
func text[R interface{ WriteText(io.Writer) }](f func(*env) (R, error)) func(*env) error {
	return func(e *env) error {
		res, err := f(e)
		if err != nil {
			return err
		}
		res.WriteText(e.w)
		return nil
	}
}

// accuracySetup is the quick setup the accuracy-derived experiments share.
func accuracySetup(e *env) experiments.AccuracySetup {
	setup := experiments.QuickAccuracySetup()
	setup.Seed = e.seed
	return setup
}

// experimentTable is the one list of experiments: the -exp help, the
// unknown-name error and the dispatcher all read it. solo experiments
// run only when named, not under -exp all.
var experimentTable = []struct {
	name string
	solo bool
	run  func(*env) error
}{
	// The kernel suite is deliberately not part of -exp all: it pins
	// GOMAXPROCS while calibrating and takes ~a minute on its own.
	{"kernels", true, func(e *env) error {
		rep := kernelbench.Run()
		rep.WriteText(e.w)
		return e.report("kernels", rep)
	}},
	// Likewise for the boundary-codec suite: it measures the fused
	// encoder/decoder against the retained scalar reference.
	{"compress", true, func(e *env) error {
		rep := codecbench.Run()
		rep.WriteText(e.w)
		return e.report("compress", rep)
	}},
	{"fig3", false, func(e *env) error {
		experiments.Figure3().WriteText(e.w)
		return nil
	}},
	{"fig9", false, func(e *env) error {
		sim, _, _, err := experiments.NewADCNNSim(models.VGG16(), e.opts)
		if err != nil {
			return err
		}
		sim.SetTrace(e.trace)
		core.TimelineFor(sim.RunImage()).WriteText(e.w, 64)
		return nil
	}},
	{"accuracy", false, text(func(e *env) (*experiments.AccuracyResult, error) {
		setup := experiments.FullAccuracySetup()
		if e.quick {
			setup = experiments.QuickAccuracySetup()
		}
		setup.Seed = e.seed
		return experiments.RunAccuracy(setup)
	})},
	{"fig11", false, text(func(e *env) (*experiments.Figure11Result, error) {
		return experiments.Figure11(e.images, e.opts)
	})},
	{"table3", false, text(func(e *env) (*experiments.Table3Result, error) {
		return experiments.Table3(e.opts)
	})},
	{"fig12", false, text(func(e *env) (*experiments.Figure12Result, error) {
		return experiments.Figure12(e.images, e.seed)
	})},
	{"fig13", false, text(func(e *env) (*experiments.Figure13Result, error) {
		return experiments.Figure13(e.images, e.opts)
	})},
	{"fig14", false, text(func(e *env) (*experiments.Figure14Result, error) {
		return experiments.Figure14(e.images, e.opts)
	})},
	{"fig15", false, text(func(e *env) (*experiments.Figure15Result, error) {
		return experiments.Figure15(e.images, e.opts)
	})},
	{"stream", false, func(e *env) error {
		res, err := experiments.Throughput(e.images, e.opts)
		if err != nil {
			return err
		}
		res.WriteText(e.w)
		// Live-runtime half: sequential vs pipelined over loopback TCP.
		rep, err := experiments.StreamBench(e.images, e.trace)
		if err != nil {
			return err
		}
		rep.WriteText(e.w)
		return e.report("stream", rep)
	}},
	{"locality", false, text(func(e *env) (*experiments.LocalityResult, error) {
		return experiments.FeatureLocality(accuracySetup(e))
	})},
	{"partition", false, text(func(e *env) (*experiments.PartitioningResult, error) {
		return experiments.ComparePartitioning(accuracySetup(e))
	})},
	{"failure", false, text(func(e *env) (*experiments.FailureResult, error) {
		return experiments.FailureSweep(accuracySetup(e), 4)
	})},
}

// experimentNames renders the table's names (plus "all") for the flag
// help and the unknown-name error.
func experimentNames() string {
	names := make([]string, 0, len(experimentTable)+1)
	for _, x := range experimentTable {
		names = append(names, x.name)
	}
	return strings.Join(append(names, "all"), "|")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as arguments; it returns the
// exit code: 0 on success, 1 when an experiment fails, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adcnn-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run ("+experimentNames()+")")
	e := &env{w: stdout}
	fs.IntVar(&e.images, "images", 50, "images per latency measurement")
	fs.BoolVar(&e.quick, "quick", false, "small accuracy setup (fast, one model)")
	fs.Int64Var(&e.seed, "seed", 1, "random seed")
	fs.StringVar(&e.out, "out", "", "output path for the experiment's JSON report (default BENCH_<exp>.json; needs a single -exp)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON timeline from the traced experiments (fig9, stream) to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	selected := experimentTable[:0:0]
	for _, x := range experimentTable {
		if *exp == x.name || (*exp == "all" && !x.solo) {
			selected = append(selected, x)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "adcnn-bench: unknown experiment %q; valid: %s\n", *exp, experimentNames())
		return 2
	}
	if *exp == "all" && e.out != "" {
		fmt.Fprintln(stderr, "adcnn-bench: -out names one report; pick a single -exp")
		return 2
	}
	e.opts = experiments.DefaultSimOptions()
	e.opts.Seed = e.seed
	if *tracePath != "" {
		e.trace = telemetry.NewTrace()
	}
	for _, x := range selected {
		fmt.Fprintf(stdout, "\n==== %s ====\n", strings.ToUpper(x.name))
		if err := x.run(e); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", x.name, err)
			return 1
		}
	}
	if e.trace != nil {
		if err := e.trace.WriteFile(*tracePath); err != nil {
			fmt.Fprintf(stderr, "write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d events)\n", *tracePath, e.trace.Len())
	}
	return 0
}
