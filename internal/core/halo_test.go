package core

import (
	"context"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/tensor"
)

// haloRuntime is buildRuntime for halo execution: the original
// (unpartitioned) VGG-sim over a 4x4 grid on four workers.
func haloRuntime(t *testing.T, tl time.Duration, with ...func(*CentralConfig)) (*Central, *models.Model, func()) {
	t.Helper()
	grid := func(cfg *CentralConfig) { cfg.Grid = fdsp.Grid{Rows: 4, Cols: 4} }
	return buildRuntime(t, models.Options{}, 4, tl, append([]func(*CentralConfig){grid}, with...)...)
}

// taskCounter sums the payload bytes of the task frames sent through it.
type taskCounter struct {
	Conn
	n *atomic.Int64
}

func (c taskCounter) Send(m *Message) error {
	n := len(m.Payload)
	err := c.Conn.Send(m)
	if err == nil && m.Kind == KindTask {
		c.n.Add(int64(n))
	}
	return err
}

// countTaskBytes wraps each of the Central's Conns so the uplink volume
// is summed into n.
func countTaskBytes(n *atomic.Int64) func(*CentralConfig) {
	return func(cfg *CentralConfig) {
		for k, conn := range cfg.Conns {
			cfg.Conns[k] = taskCounter{Conn: conn, n: n}
		}
	}
}

// TestHaloModeIsExact: halo-extended tiles through the one engine equal
// local execution, and pay for it by shipping more than the raw image.
func TestHaloModeIsExact(t *testing.T) {
	check := leakCheck(t)
	var sent atomic.Int64
	c, m, stop := haloRuntime(t, 5*time.Second, countTaskBytes(&sent))
	if c.halo == nil || c.halo.margin <= 0 {
		t.Fatal("a multi-conv front must need a positive halo margin")
	}
	rng := rand.New(rand.NewSource(4))
	const trials = 3
	for trial := 0; trial < trials; trial++ {
		x := tensor.New(1, 3, 32, 32)
		x.RandN(rng, 1)
		want := m.Net.Forward(x, false)
		got, st, err := c.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if st.TilesMissed != 0 || !got.Equal(want, 1e-4) {
			t.Fatal("halo-mode distributed inference must be exact")
		}
	}
	if sent := sent.Load(); sent <= trials*4*3*32*32 {
		t.Fatalf("halo uplink %v bytes must exceed the raw images (overlap overhead)", sent)
	}
	stop()
	check()
}

// TestHaloModeThroughPipeline: halo execution inherits pipelining — four
// images in flight at once, every one exact.
func TestHaloModeThroughPipeline(t *testing.T) {
	c, m, stop := haloRuntime(t, 5*time.Second)
	defer stop()
	rng := rand.New(rand.NewSource(6))
	const n = 8
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.New(1, 3, 32, 32)
		xs[i].RandN(rng, 1)
	}
	seen := 0
	for h := range submitAll(t, NewPipeline(c, 4), xs) {
		out, _, err := h.Wait()
		if err != nil {
			t.Fatalf("image %d: %v", seen, err)
		}
		if !out.Equal(m.Net.Forward(xs[seen], false), 1e-4) {
			t.Fatalf("image %d: pipelined halo inference must be exact", seen)
		}
		seen++
	}
	if seen != n {
		t.Fatalf("pipeline delivered %d of %d images", seen, n)
	}
}

// dyingConn fails — and closes — its connection on the first task frame
// sent after it is armed: the node dies mid-image, with that image's
// tiles already queued on its session.
type dyingConn struct {
	Conn
	armed atomic.Bool
}

func (d *dyingConn) Send(m *Message) error {
	if d.armed.Load() && m.Kind == KindTask {
		d.Conn.Close()
		return io.ErrClosedPipe
	}
	return d.Conn.Send(m)
}

// TestHaloModeSurvivesNodeDeath: halo execution inherits failover — the
// tiles stranded on a node that dies mid-image are redispatched, and the
// image is still exact.
func TestHaloModeSurvivesNodeDeath(t *testing.T) {
	var dying *dyingConn
	c, m, stop := haloRuntime(t, 5*time.Second, func(cfg *CentralConfig) {
		dying = &dyingConn{Conn: cfg.Conns[1]}
		cfg.Conns[1] = dying
	})
	defer stop()
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	want := m.Net.Forward(x, false)
	for i := 0; i < 3; i++ {
		if i == 1 {
			dying.armed.Store(true)
		}
		got, st, err := c.Infer(x)
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if i == 0 && st.Alloc[1] == 0 {
			t.Fatal("node 1 should have had work before dying")
		}
		if i > 0 && st.Received[1] != 0 {
			t.Fatalf("image %d: dead node returned %d tiles", i, st.Received[1])
		}
		if st.TilesMissed != 0 || !got.Equal(want, 1e-4) {
			t.Fatalf("image %d: halo inference must stay exact across the failover", i)
		}
	}
}

// TestHaloModeDeadlineMissIsAnError: exactness is the contract, so a
// tile that misses T_L fails the image instead of being zero-filled.
func TestHaloModeDeadlineMissIsAnError(t *testing.T) {
	m, err := models.Build(models.VGGSim(), models.Options{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, b := Pipe()
	w := NewWorker(1, m)
	w.SetDelay(100 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = w.Serve(context.Background(), b) }()
	c, err := CentralConfig{
		Model: m, Conns: []Conn{a}, TL: 5 * time.Millisecond, Gamma: 0.9,
		Grid: fdsp.Grid{Rows: 2, Cols: 2},
	}.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Shutdown(); wg.Wait() }()
	out, st, err := c.Infer(tensor.New(1, 3, 32, 32))
	if err == nil || out != nil {
		t.Fatalf("a T_L miss in halo mode must fail the image, got out=%v err=%v", out, err)
	}
	if !strings.Contains(err.Error(), "cannot zero-fill") || st.TilesMissed == 0 {
		t.Fatalf("error %q / missed %d should report the missing tiles", err, st.TilesMissed)
	}
}

// TestHaloModeCostsMoreWireThanFDSP: halo mode moves more bytes than
// FDSP with the boundary codec for the same image — the quantitative
// core of the ADCNN-vs-AOFL comparison, on the live runtime.
func TestHaloModeCostsMoreWireThanFDSP(t *testing.T) {
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(5)), 1)
	wire := func(build func(...func(*CentralConfig)) (*Central, func())) int64 {
		var sent atomic.Int64
		c, stop := build(countTaskBytes(&sent))
		defer stop()
		_, st, err := c.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		return sent.Load() + st.WireBytes
	}
	haloWire := wire(func(with ...func(*CentralConfig)) (*Central, func()) {
		c, _, stop := haloRuntime(t, 5*time.Second, with...)
		return c, stop
	})
	fdspWire := wire(func(with ...func(*CentralConfig)) (*Central, func()) {
		opt := models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}, ClipLo: 0.05, ClipHi: 2.5, QuantBits: 4}
		c, _, stop := buildRuntime(t, opt, 4, 5*time.Second, with...)
		return c, stop
	})
	if haloWire <= fdspWire {
		t.Fatalf("halo wire %v must exceed compressed FDSP wire %v", haloWire, fdspWire)
	}
}

// TestCentralConfigValidation: Start rejects every configuration that
// could not run, before any session exists.
func TestCentralConfigValidation(t *testing.T) {
	grid := fdsp.Grid{Rows: 2, Cols: 2}
	build := func(opt models.Options) *models.Model {
		m, err := models.Build(models.VGGSim(), opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	partitioned, original := build(models.Options{Grid: grid}), build(models.Options{})
	clipped := build(models.Options{ClipLo: 0.05, ClipHi: 2})
	a, _ := Pipe()
	dial := func(context.Context) (Conn, error) { return nil, io.EOF }
	for _, tc := range []struct {
		name string
		cfg  CentralConfig
	}{
		{"nil model", CentralConfig{Conns: []Conn{a}}},
		{"no conns", CentralConfig{Model: partitioned}},
		{"dialer count mismatch", CentralConfig{Model: partitioned, Conns: []Conn{a}, Dialers: []Dialer{dial, dial}}},
		{"unpartitioned model without Grid", CentralConfig{Model: original, Conns: []Conn{a}}},
		{"partitioned model with Grid", CentralConfig{Model: partitioned, Conns: []Conn{a}, Grid: grid}},
		{"clipped model in halo mode", CentralConfig{Model: clipped, Conns: []Conn{a}, Grid: grid}},
		{"invalid halo Grid", CentralConfig{Model: original, Conns: []Conn{a}, Grid: fdsp.Grid{Rows: -1, Cols: 2}}},
	} {
		if c, err := tc.cfg.Start(); err == nil {
			c.Shutdown()
			t.Errorf("%s: Start must fail", tc.name)
		}
	}
}
