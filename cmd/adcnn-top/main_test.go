package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"regexp"
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
// name: a 2-replica adcnn-central (the replicas' catalogs, their SLO
// engines, the cluster families and build info) and an adcnn-conv
// (the worker catalog and build info).
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
	ns := core.NewNodeServer(w, 0)
	creg := telemetry.NewRegistry()
	build := func(r int) (*core.Central, error) {
		a, b := core.Pipe()
		wg.Add(1)
		go func() { defer wg.Done(); _ = ns.ServeConn(ctx, b) }()
		met := core.NewMetrics(creg, r)
		core.NewSLOEngine(met, core.SLOConfig{})
		return core.CentralConfig{Model: m, Conns: []core.Conn{a}, TL: time.Second, Gamma: 0.9, Metrics: met}.Start()
	}
	cl, err := core.NewCluster(build, core.ClusterOptions{Replicas: 2, Registry: creg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	telemetry.RegisterBuildInfo(creg, "central", "test")
	return creg.Snapshot().Families, wreg.Snapshot().Families
}

// TestCatalogHasReaders: every family the daemons export is read by this
// console (histograms through their _bucket, _count or _sum series). A
// family nothing reads is a cost without a consumer: give it a panel
// here, or delete it with the code that feeds it. Each daemon exports
// only its own role's families: a Conv node no Central or scheduler
// series, a Central no worker series, and every Central and scheduler
// family leads with the replica label.
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
	for _, f := range central {
		switch {
		case strings.HasPrefix(f.Name, "adcnn_worker_"):
			t.Errorf("adcnn-central registers %s", f.Name)
		case strings.HasPrefix(f.Name, "adcnn_central_") || strings.HasPrefix(f.Name, "adcnn_sched_"):
			if len(f.Labels) == 0 || f.Labels[0] != "replica" {
				t.Errorf("%s labels %v, want a leading replica label", f.Name, f.Labels)
			}
		}
	}
	names := map[string]bool{}
	for _, f := range append(central, conv...) {
		names[f.Name] = true
		if !regexp.MustCompile(`"` + regexp.QuoteMeta(f.Name) + `(_bucket|_count|_sum)?"`).Match(src) {
			t.Errorf("family %s is registered but adcnn-top never reads it", f.Name)
		}
	}
	t.Logf("%d families: %d on the Central, %d on a Conv node", len(names), len(central), len(conv))
}

// TestRenderSumsReplicas: on a two-replica Central where replica 0
// settled 90 tiles at 0.8 ms and replica 1 settled 10 at 200 ms, the
// tile quantiles read the per-bound sum of both replicas' buckets (so
// p99 lies among replica 1's slow tiles), and the phase mean is the
// pooled mean, not either replica's.
func TestRenderSumsReplicas(t *testing.T) {
	reg := telemetry.NewRegistry()
	var hists []*telemetry.Histogram
	for r, tiles := range []struct {
		n   int
		sec float64
	}{{90, 0.0008}, {10, 0.2}} {
		met := core.NewMetrics(reg, r)
		for i := 0; i < tiles.n; i++ {
			met.TileRoundTrip.Observe(tiles.sec)
			met.TilePhase[core.PhaseCompute].Observe(tiles.sec)
		}
		hists = append(hists, met.TileRoundTrip)
	}
	srv := httptest.NewServer(telemetry.MuxChecks(reg, nil, nil))
	defer srv.Close()
	d := &dash{central: strings.TrimPrefix(srv.URL, "http://"), client: srv.Client()}
	d.prev = &scrapeSet{at: time.Now().Add(-time.Second)}
	frame := d.render()

	a, b := hists[0].Snapshot(), hists[1].Snapshot()
	cum := a.Cumulative()
	for i, c := range b.Cumulative() {
		cum[i] += c
	}
	q := func(p float64) float64 { return telemetry.QuantileFromBuckets(a.Upper, cum, p) }
	if p99 := q(0.99); p99 <= 0.1 || p99 > 0.25 {
		t.Fatalf("pooled p99 %v outside (0.1, 0.25]", p99)
	}
	want := fmt.Sprintf("tile p50/p95/p99 %s/%s/%s", fmtSec(q(0.50)), fmtSec(q(0.95)), fmtSec(q(0.99)))
	if !strings.Contains(frame, want) {
		t.Errorf("frame lacks %q:\n%s", want, frame)
	}
	if mean := fmtSec((90*0.0008 + 10*0.2) / 100); !strings.Contains(frame, "compute="+mean) {
		t.Errorf("frame lacks the pooled compute mean %s:\n%s", mean, frame)
	}
}
