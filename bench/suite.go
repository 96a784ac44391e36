package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// child runs one workload in a fresh process, so peak_rss_mb and
// setup_s are not polluted by the workload before it, and returns the
// result line. The child's own report goes to standard error as it runs.
func child(w workload, seed int64, seconds float64, trace int, outDir string) (resultLine, error) {
	var res resultLine
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe,
		"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("%s: no result line (%v): %w", w.Name, runErr, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", w.Name, runErr)
	}
	return res, nil
}

// runAll prints every end-to-end metric of every workload, then the
// per-layer table, and leaves the result and trace files in outDir.
func runAll(seed int64, seconds float64, outDir string) error {
	e2e := make([]resultLine, len(workloads))
	layers := make([]resultLine, len(workloads))
	for i, w := range workloads {
		var err error
		if e2e[i], err = child(w, seed, seconds, 0, outDir); err != nil {
			return err
		}
		if layers[i], err = child(w, seed, seconds, 1, outDir); err != nil {
			return err
		}
	}
	printTable("end to end (tracing off)", endToEnd, e2e)
	printUngated(e2e)
	printTable("per layer (traced window + layer replay; 0 = layer not exercised)", perLayer, layers)
	fmt.Printf("\ntrace files: %s/trace-<workload>.json; result files: %s/result-<workload>-<e2e|layers>.json\n", outDir, outDir)
	return nil
}

func printTable(title string, defs []metricDef, rows []resultLine) {
	fmt.Printf("\n%s\n%-40s %-8s", title, "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %18s", w.Name)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-40s %-8s", d.Name, d.Unit)
		for i := range workloads {
			fmt.Printf(" %18.4f", rows[i].Metrics[d.Name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-49s", "images attempted / failed")
	for i := range workloads {
		fmt.Printf(" %18s", fmt.Sprintf("%d / %d", rows[i].Attempted, rows[i].Failed))
	}
	fmt.Println()
}

// printUngated prints the two end-to-end figures the benchmark's issue
// names that BENCHMARK.json cannot gate on (metrics.go says why), worked
// out from the result lines.
func printUngated(rows []resultLine) {
	fmt.Printf("%-40s %-8s", "latency_p95_ms", "ms")
	for i := range workloads {
		m := rows[i].Metrics
		fmt.Printf(" %18.4f", m["latency_p50_ms"].Value*m["latency_p95_over_p50"].Value)
	}
	fmt.Printf("\n%-40s %-8s", "failed_share", "ratio")
	for i := range workloads {
		fmt.Printf(" %18.4f", float64(rows[i].Failed)/float64(rows[i].Attempted))
	}
	fmt.Println()
}

// worsening returns by what share of a the metric got worse going from
// a to b (negative: it improved).
func (d metricDef) worsening(a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runCheck measures every workload twice on the same seed and fails if
// the two sets disagree, in either direction, by more than a metric's
// own bound: a benchmark that cannot repeat itself within its bounds
// cannot tell a regression from noise.
func runCheck(seed int64, seconds float64, outDir string) error {
	bad := 0
	for _, w := range workloads {
		var sets [2]resultLine
		for i := range sets {
			var err error
			if sets[i], err = child(w, seed, seconds, 0, outDir); err != nil {
				return err
			}
		}
		fmt.Printf("\n%s\n%-24s %14s %14s %9s %7s\n", w.Name, "metric", "first", "second", "moved", "bound")
		for _, d := range endToEnd {
			a, b := sets[0].Metrics[d.Name].Value, sets[1].Metrics[d.Name].Value
			moved := max(d.worsening(a, b), d.worsening(b, a))
			verdict := ""
			if moved > d.Bound && !(d.Name == "setup_s" && math.Abs(a-b) <= setupFloorS) {
				verdict = "  OUTSIDE BOUND"
				bad++
			}
			fmt.Printf("%-24s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", d.Name, a, b, 100*moved, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) did not repeat within their bounds", bad)
	}
	fmt.Println("\nevery end-to-end metric of every workload repeated within its bound")
	return nil
}
