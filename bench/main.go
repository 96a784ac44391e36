// Command bench is the repository's end-to-end benchmark: it drives the
// real ADCNN runtime — models.Build, in-process core.NodeServers behind
// TCP loopback sockets, core.NewCentral, Infer / core.Pipeline — with
// real compute on every Conv node, and reports what a user of the
// cluster sees (untraced) or what each layer contributes (traced).
//
//	go run ./bench -workload r18-f32-seq -seed 1 -trace 0   # end-to-end metrics
//	go run ./bench -workload r18-f32-seq -seed 1 -trace 1   # per-layer metrics + trace file
//	go run ./bench -all                                     # every workload, both runs, tables
//	go run ./bench -check                                   # two sets, compared within bounds
//
// The last line of standard output of a single run is one JSON object
// with the keys correct, attempted, failed and metrics; everything else
// goes to standard error and to bench/out/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// hostInfo is recorded in every result file so results from different
// machines and builds are not compared by accident.
type hostInfo struct {
	telemetry.Host
	GOMAXPROCS int    `json:"gomaxprocs"`
	KernelTier string `json:"kernel_tier"`
}

func collectHost() hostInfo {
	return hostInfo{Host: telemetry.HostInfo(), GOMAXPROCS: runtime.GOMAXPROCS(0), KernelTier: tensor.CurrentKernelTier().String()}
}

func main() {
	name := flag.String("workload", "", "workload to run; README.md lists them")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same images")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced window and the layer replay")
	all := flag.Bool("all", false, "run every workload untraced and traced, one child process each, and print the tables")
	check := flag.Bool("check", false, "run every workload untraced twice on the same seed and fail if any end-to-end metric moves by more than its bound")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
	flag.Parse()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *all:
		if err := runAll(*seed, *seconds, *outDir); err != nil {
			fatal(err)
		}
	case *check:
		if err := runCheck(*seed, *seconds, *outDir); err != nil {
			fatal(err)
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		rep, err := runOne(w, *seed, *seconds, *trace != 0, *outDir)
		if err != nil {
			fatal(err)
		}
		rep.writeText(os.Stderr)
		line, err := json.Marshal(rep.Result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !rep.Result.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload in one mode and writes its result file.
func runOne(w workload, seed int64, seconds float64, traced bool, outDir string) (*report, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	var rep *report
	var err error
	mode := "e2e"
	if traced {
		mode = "layers"
		rep, err = runTraced(w, seed, seconds, outDir)
	} else {
		rep, err = runUntraced(w, seed, seconds)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", w.Name, mode))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// writeText prints the run for a person: counts, checks, every metric
// by name with its unit.
func (r *report) writeText(f *os.File) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(f, "%s (%s, seed %d, %.0f s): attempted %d, succeeded %d, failed %d\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Result.Attempted, r.Result.Attempted-r.Result.Failed, r.Result.Failed)
	fmt.Fprintf(f, "  samples:")
	for _, k := range sortedKeys(r.Samples) {
		fmt.Fprintf(f, " %s=%d", k, r.Samples[k])
	}
	fmt.Fprintln(f)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(f, "  %-40s %14.4f %s\n", d.Name, r.Result.Metrics[d.Name].Value, d.Unit)
	}
	if r.Traced {
		m := r.Result.Metrics
		if o, d := m["trace.overhead_pct"].Value, m["trace.untraced_windows_differ_pct"].Value; math.Abs(o) < d {
			fmt.Fprintf(f, "  trace.overhead_pct is unresolved: %.2f %% is less than the %.2f %% by which the two untraced windows differ\n", o, d)
		}
	}
	for _, k := range sortedKeys(r.Extra) {
		fmt.Fprintf(f, "  (%s = %.6g)\n", k, r.Extra[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(f, "  FAILED %s\n", n)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
