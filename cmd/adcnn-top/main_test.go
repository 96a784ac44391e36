package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"adcnn/internal/core"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
)

// daemonFamilies returns the metric families each daemon registers, by
// name: an adcnn-central (the Central's catalog, its SLO engine and
// build info) and an adcnn-conv (the worker catalog and build info).
func daemonFamilies(t *testing.T) (central, conv []telemetry.FamilySnapshot) {
	t.Helper()
	m, err := models.Build(models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	wreg := telemetry.NewRegistry()
	w := core.NewWorker(1, m)
	w.Metrics = core.NewWorkerMetrics(wreg)
	telemetry.RegisterBuildInfo(wreg, "conv", "test")

	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a, b := core.Pipe()
	wg.Add(1)
	go func() { defer wg.Done(); _ = core.NewNodeServer(w, 0).ServeConn(ctx, b) }()
	creg := telemetry.NewRegistry()
	met := core.NewMetrics(creg)
	core.NewSLOEngine(met, core.SLOConfig{})
	cen, err := core.CentralConfig{Model: m, Conns: []core.Conn{a}, TL: time.Second, Gamma: 0.9, Metrics: met}.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer cen.Shutdown()
	telemetry.RegisterBuildInfo(creg, "central", "test")
	return creg.Snapshot().Families, wreg.Snapshot().Families
}

// TestCatalogHasReaders: every family the daemons export is read by this
// console (histograms through their _bucket, _count or _sum series), and
// every family the console reads is exported. A family nothing reads is
// a cost without a consumer: give it a panel here, or delete it with the
// code that feeds it. Each daemon exports
// only its own role's families: a Conv node no Central or scheduler
// series, a Central no worker series. The Central's catalog is one
// Central's: no family carries a replica label, there is no
// adcnn_cluster_* family, and the SLO objectives are named bare.
func TestCatalogHasReaders(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	central, conv := daemonFamilies(t)
	for _, f := range conv {
		if !strings.HasPrefix(f.Name, "adcnn_worker_") && f.Name != "adcnn_build_info" {
			t.Errorf("adcnn-conv registers %s", f.Name)
		}
	}
	var objectives []string
	for _, f := range central {
		switch {
		case strings.HasPrefix(f.Name, "adcnn_worker_"), strings.HasPrefix(f.Name, "adcnn_cluster_"):
			t.Errorf("adcnn-central registers %s", f.Name)
		case slices.Contains(f.Labels, "replica"):
			t.Errorf("%s labels %v carry a replica label", f.Name, f.Labels)
		case f.Name == "adcnn_slo_state":
			for _, ms := range f.Metrics {
				objectives = append(objectives, ms.LabelValues...)
			}
		}
	}
	if want := []string{core.SLOTileLatency, core.SLOZeroFill}; !slices.Equal(objectives, want) {
		t.Errorf("adcnn_slo_state objectives %v, want %v", objectives, want)
	}
	names := map[string]bool{}
	for _, f := range append(central, conv...) {
		names[f.Name] = true
		if !regexp.MustCompile(`"` + regexp.QuoteMeta(f.Name) + `(_bucket|_count|_sum)?"`).Match(src) {
			t.Errorf("family %s is registered but adcnn-top never reads it", f.Name)
		}
	}
	// And the other way: every family this console quotes is registered,
	// so a panel cannot go on reading a family that is gone.
	for _, q := range regexp.MustCompile(`"(adcnn_[a-z0-9_]+?)(?:_bucket|_count|_sum)?"`).FindAllSubmatch(src, -1) {
		if !names[string(q[1])] {
			t.Errorf("adcnn-top reads %s, which neither daemon registers", q[1])
		}
	}
	t.Logf("%d families: %d on the Central, %d on a Conv node", len(names), len(central), len(conv))
}

// TestRenderReadsTheCentral: on a Central that settled 90 tiles at
// 0.8 ms and 10 at 200 ms, the frame's tile quantiles are the ones of
// its round-trip histogram (so p99 lies among the slow tiles), and the
// compute phase reads the histogram's mean. Over an interval of 20
// images, the node table's crit column shows each node's share of them
// as critical path, from the counter deltas, beside its dominant phase,
// and each node's row ends in its RTT gauge.
func TestRenderReadsTheCentral(t *testing.T) {
	reg := telemetry.NewRegistry()
	met := core.NewMetrics(reg)
	crit := func(node string, phase, n int) {
		met.CriticalPath.With(node, core.PhaseNames[phase]).Add(float64(n))
	}
	met.Images.Add(10)
	crit("0", core.PhaseCompute, 3)
	srv := httptest.NewServer(telemetry.MuxChecks(reg, nil, nil))
	defer srv.Close()
	d := &dash{central: strings.TrimPrefix(srv.URL, "http://"), client: srv.Client()}
	d.prev = d.poll(d.central)

	for _, tiles := range []struct {
		n   int
		sec float64
	}{{90, 0.0008}, {10, 0.2}} {
		for i := 0; i < tiles.n; i++ {
			met.TileRoundTrip.Observe(tiles.sec)
			met.TilePhase[core.PhaseCompute].Observe(tiles.sec)
		}
	}
	met.Images.Add(20)
	crit("0", core.PhaseCompute, 5)
	crit("0", core.PhaseUplink, 2)
	crit("1", core.PhaseNodeQueue, 8)
	for _, n := range []string{"0", "1", "2"} {
		met.SchedSpeed.With(n).Set(1)
	}
	met.LinkRTT.With("1").Set(0.0012)
	frame := d.render()

	for _, row := range []struct{ node, share, phase string }{
		{"0", "35%", "compute"}, {"1", "40%", "node_queue"}, {"2", "0%", "-"},
	} {
		re := regexp.MustCompile(`(?m)^   ` + row.node + ` .* ` + row.share + `  \[[| ]*\] ` + regexp.QuoteMeta(row.phase) + ` `)
		if !re.MatchString(frame) {
			t.Errorf("node %s row lacks crit %s %s:\n%s", row.node, row.share, row.phase, frame)
		}
	}
	for _, row := range []struct{ node, rtt string }{{"0", "-"}, {"1", "1.2ms"}} {
		if !regexp.MustCompile(`(?m)^   ` + row.node + ` .* ` + regexp.QuoteMeta(row.rtt) + ` +alive$`).MatchString(frame) {
			t.Errorf("node %s row lacks rtt %s:\n%s", row.node, row.rtt, frame)
		}
	}
	h := met.TileRoundTrip.Snapshot()
	q := func(p float64) float64 { return telemetry.QuantileFromBuckets(h.Upper, h.Cumulative(), p) }
	if p99 := q(0.99); p99 <= 0.1 || p99 > 0.25 {
		t.Fatalf("p99 %v outside (0.1, 0.25]", p99)
	}
	want := fmt.Sprintf("tile p50/p95/p99 %s/%s/%s", fmtSec(q(0.50)), fmtSec(q(0.95)), fmtSec(q(0.99)))
	if !strings.Contains(frame, want) {
		t.Errorf("frame lacks %q:\n%s", want, frame)
	}
	if mean := fmtSec((90*0.0008 + 10*0.2) / 100); !strings.Contains(frame, "compute="+mean) {
		t.Errorf("frame lacks the compute mean %s:\n%s", mean, frame)
	}
}

// TestRenderOnceSpansAnInterval: -once takes its baseline scrape and the
// frame's scrape one interval apart, so the frame's rates describe that
// interval rather than the milliseconds between two back-to-back polls.
// The registry is empty, as on a daemon that is not a Central: the frame
// must still render.
func TestRenderOnceSpansAnInterval(t *testing.T) {
	const interval = 100 * time.Millisecond
	mux := telemetry.MuxChecks(telemetry.NewRegistry(), nil, nil)
	var mu sync.Mutex
	var scrapes []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			mu.Lock()
			scrapes = append(scrapes, time.Now())
			mu.Unlock()
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()
	d := &dash{central: strings.TrimPrefix(srv.URL, "http://"), client: srv.Client()}
	frame := d.renderOnce(interval)
	mu.Lock()
	defer mu.Unlock()
	if len(scrapes) != 2 {
		t.Fatalf("%d /metrics scrapes, want 2:\n%s", len(scrapes), frame)
	}
	if gap := scrapes[1].Sub(scrapes[0]); gap < interval {
		t.Errorf("scrapes %v apart, want at least the %v interval", gap, interval)
	}
}

// TestRenderShowsReallocations: the decisions panel reads the realloc
// events of the Central's /debug/flight ring, and still does when the
// page carries 32 whole-ring dumps, several MiB past fetch's cap.
func TestRenderShowsReallocations(t *testing.T) {
	f := telemetry.NewFlightRecorder(0)
	filler := strings.Repeat("x", 100)
	for i := 0; i < telemetry.DefaultFlightSize; i++ {
		f.Record("stale", uint32(i+1), i%16, i%4, filler)
	}
	details := []string{
		"initial: [] → [8 8], 0 tiles moved, bottleneck 1 → 1",
		"speed node=1 -50%: [8 8] → [11 5], 3 tiles moved, bottleneck 2 → 1.38",
	}
	for i, detail := range details {
		f.Record("realloc", uint32(i+1), -1, i-1, detail)
	}
	for i := 0; i < 32; i++ {
		f.DumpAll("slo-breach")
	}
	mux := telemetry.MuxChecks(telemetry.NewRegistry(), nil, nil)
	mux.Handle("/debug/flight", f)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Body.Len() <= 4<<20 {
		t.Fatalf("page is %d bytes, want it past the 4 MiB fetch cap", rec.Body.Len())
	}

	d := &dash{central: strings.TrimPrefix(srv.URL, "http://"), client: srv.Client()}
	d.prev = d.poll(d.central)
	frame := d.render()
	if !strings.Contains(frame, "scheduler decisions (2 in the flight ring)") {
		t.Errorf("frame lacks the decisions panel over a %d-byte page:\n%s", rec.Body.Len(), frame)
	}
	for i, detail := range details {
		if want := fmt.Sprintf("img %-5d %s", i+1, detail); !strings.Contains(frame, want) {
			t.Errorf("frame lacks %q:\n%s", want, frame)
		}
	}
}
