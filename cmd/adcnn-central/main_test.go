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

// TestCentralGetsObservability: with metrics on, the Central started
// over TCP gets an SLO engine, its tracer records the images, the
// /healthz check fails once the engine breaches, and /debug/sessions
// serves one JSON entry per Conv node.
func TestCentralGetsObservability(t *testing.T) {
	build := func() *models.Model {
		m, err := models.Build(models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 42)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	addrs := convPool(t, build(), 2)
	cfg := core.CentralConfig{
		Model: build(), TL: 5 * time.Second, Gamma: 0.9,
		Metrics: core.NewMetrics(telemetry.NewRegistry()),
		Trace:   telemetry.NewTrace(),
		Flight:  telemetry.NewFlightRecorder(0),
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	// A 1ns latency objective: every tile that flows is a bad one.
	cen, engine, err := startCentral(logger, cfg, addrs, 5*time.Second, core.SLOConfig{TileP99: 1e-9, MissBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cen.Shutdown()
	if engine == nil {
		t.Fatal("central with metrics started without an SLO engine")
	}
	check := sloCheck(engine)
	if err := check(); err != nil {
		t.Fatalf("breached before any traffic: %v", err)
	}
	pipe := core.NewPipeline(cen, 2)
	x := tensor.New(1, 3, 32, 32)
	for i := 0; i < 4; i++ {
		h, err := pipe.Submit(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if cfg.Trace.Len() == 0 {
		t.Fatal("the tracer recorded nothing over 4 images")
	}
	engine.Tick(time.Now())
	if err := check(); err == nil || !strings.Contains(err.Error(), "slo breach") {
		t.Fatalf("/healthz check = %v after 16 tiles over a 1ns objective", err)
	}
	rec := httptest.NewRecorder()
	sessionsHandler(cen).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/sessions", nil))
	var sessions []core.SessionDebug
	if err := json.Unmarshal(rec.Body.Bytes(), &sessions); err != nil {
		t.Fatalf("bad JSON from /debug/sessions: %v", err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" || len(sessions) != len(addrs) {
		t.Fatalf("/debug/sessions served %q %+v, want one entry per node", ct, sessions)
	}
}
