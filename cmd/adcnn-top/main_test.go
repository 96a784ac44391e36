package main

import (
	"context"
	"os"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"adcnn/internal/core"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
)

// daemonFamilies returns every metric family adcnn-central and
// adcnn-conv register: a lone Central's catalog (a Conv node's is the
// same bundle), and a 2-replica cluster's replica-labeled catalog with
// its cluster families — each with its SLO engine and build info.
func daemonFamilies(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	collect := func(reg *telemetry.Registry) {
		for _, f := range reg.Snapshot().Families {
			seen[f.Name] = true
		}
	}

	reg := telemetry.NewRegistry()
	core.NewSLOEngine(core.NewMetrics(reg), core.SLOConfig{})
	telemetry.RegisterBuildInfo(reg, "central", "test")
	collect(reg)

	m, err := models.Build(models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ns := core.NewNodeServer(core.NewWorker(1, m), 0)
	creg := telemetry.NewRegistry()
	build := func(r int) (*core.Central, error) {
		a, b := core.Pipe()
		wg.Add(1)
		go func() { defer wg.Done(); _ = ns.ServeConn(ctx, b) }()
		met := core.NewReplicaMetrics(creg, strconv.Itoa(r))
		core.NewSLOEngine(met, core.SLOConfig{})
		return core.CentralConfig{Model: m, Conns: []core.Conn{a}, TL: time.Second, Gamma: 0.9, Metrics: met}.Start()
	}
	cl, err := core.NewCluster(build, core.ClusterOptions{Replicas: 2, Registry: creg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	telemetry.RegisterBuildInfo(creg, "central", "test")
	collect(creg)

	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestCatalogHasReaders: every family the daemons export is read by this
// console (histograms through their _bucket, _count or _sum series). A
// family nothing reads is a cost without a consumer: give it a panel
// here, or delete it with the code that feeds it.
func TestCatalogHasReaders(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	names := daemonFamilies(t)
	for _, name := range names {
		if !regexp.MustCompile(`"` + regexp.QuoteMeta(name) + `(_bucket|_count|_sum)?"`).Match(src) {
			t.Errorf("family %s is registered but adcnn-top never reads it", name)
		}
	}
	t.Logf("%d families: %v", len(names), names)
}
