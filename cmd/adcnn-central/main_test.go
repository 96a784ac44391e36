package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adcnn/internal/core"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/sched"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// convPool starts n Conv nodes on loopback TCP and returns their
// addresses.
func convPool(t *testing.T, m *models.Model, n int) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var addrs []string
	for k := 0; k < n; k++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		addrs = append(addrs, ln.Addr().String())
		ns := core.NewNodeServer(core.NewWorker(k+1, m), 0)
		go func() {
			for {
				raw, err := ln.Accept()
				if err != nil {
					return
				}
				go func() { _ = ns.ServeConn(ctx, core.NewStreamConn(raw)); raw.Close() }()
			}
		}()
	}
	return addrs
}

// TestEveryReplicaCountGetsObservability: the one build closure gives
// every replica — of a lone Central and of a cluster alike — an SLO
// engine and a tracer, and /healthz fails once any replica breaches.
func TestEveryReplicaCountGetsObservability(t *testing.T) {
	build := func() (*models.Model, error) {
		return models.Build(models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 42)
	}
	m, err := build()
	if err != nil {
		t.Fatal(err)
	}
	addrs := convPool(t, m, 2)
	for _, replicas := range []int{1, 2} {
		b := &centralBuilder{
			logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
			addrs:  addrs, replicas: replicas, model: build,
			base:           core.CentralConfig{TL: 5 * time.Second, Gamma: 0.9, Flight: telemetry.NewFlightRecorder(0)},
			connectTimeout: 5 * time.Second,
			// A 1ns latency objective: every tile that flows is a bad one.
			slo:     core.SLOConfig{TileP99: 1e-9, MissBudget: -1},
			tracing: true,
			reg:     telemetry.NewRegistry(),
			audit:   sched.NewAudit(0, nil),
			obs:     make([]replicaObs, replicas),
		}
		cl, err := core.NewCluster(b.buildCentral, core.ClusterOptions{Replicas: replicas, Depth: 1, Registry: b.reg})
		if err != nil {
			t.Fatal(err)
		}
		for r, o := range b.obs {
			if o.engine == nil || o.trace == nil {
				t.Fatalf("replicas=%d: replica %d built without engine (%v) or tracer (%v)",
					replicas, r, o.engine != nil, o.trace != nil)
			}
		}
		if err := b.breached(); err != nil {
			t.Fatalf("replicas=%d: breached before any traffic: %v", replicas, err)
		}
		// Load the last replica only: one breaching replica must be enough.
		x := tensor.New(1, 3, 32, 32)
		for i := 0; i < 4; i++ {
			ch, err := cl.Submit(context.Background(), replicas-1, x)
			if err != nil {
				t.Fatal(err)
			}
			if r := <-ch; r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		for _, o := range b.obs {
			o.engine.Tick(time.Now())
		}
		if err := b.breached(); err == nil || !strings.Contains(err.Error(), "slo breach") {
			t.Fatalf("replicas=%d: /healthz check = %v after 16 tiles over a 1ns objective", replicas, err)
		}
		rec := httptest.NewRecorder()
		sessionsHandler(cl).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/sessions", nil))
		var sessions map[string][]core.SessionDebug
		if err := json.Unmarshal(rec.Body.Bytes(), &sessions); err != nil {
			t.Fatalf("bad JSON from /debug/sessions: %v", err)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" || len(sessions) != replicas || len(sessions["0"]) != len(addrs) {
			t.Fatalf("replicas=%d: /debug/sessions served %q %+v", replicas, ct, sessions)
		}
		cl.Shutdown()
		if got, want := b.tracePath("out.json", replicas-1), map[int]string{1: "out.json", 2: "out.r1.json"}[replicas]; got != want {
			t.Fatalf("trace path = %q, want %q", got, want)
		}
	}
}
