package core

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/tensor"
)

// serveNodeTCP runs a NodeServer behind a loopback TCP accept loop —
// the shape of the adcnn-conv daemon — so several Centrals can each
// dial their own session to the same node.
func serveNodeTCP(t *testing.T, ns *NodeServer) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() { defer wg.Done(); _ = ns.ServeConn(ctx, NewStreamConn(c)) }()
		}
	}()
	return ln.Addr().String(), func() { cancel(); ln.Close(); wg.Wait() }
}

// TestNodeServerConcurrentSessionsTCP is the Conv half of the sharded
// control plane: one NodeServer per node serving two independent
// Central sessions over real TCP at once. Each Central's outputs must
// match local execution exactly (tile demux routed every result to the
// session that sent the task, exactly once), each session must build
// its own clock-offset estimate, and the per-session tile counters must
// account for every tile sent — no duplication, no loss.
func TestNodeServerConcurrentSessionsTCP(t *testing.T) {
	check := leakCheck(t)
	cfg := models.VGGSim()
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	m, err := models.Build(cfg, opt, 7)
	if err != nil {
		t.Fatal(err)
	}

	const nodes, centrals, images = 2, 2, 4
	servers := make([]*NodeServer, nodes)
	addrs := make([]string, nodes)
	stops := make([]func(), nodes)
	for i := 0; i < nodes; i++ {
		servers[i] = NewNodeServer(NewWorker(i+1, m), 0)
		addrs[i], stops[i] = serveNodeTCP(t, servers[i])
	}

	cens := make([]*Central, centrals)
	for r := 0; r < centrals; r++ {
		conns := make([]Conn, nodes)
		for i, addr := range addrs {
			d, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			conns[i] = NewStreamConn(d)
		}
		cen, err := NewCentral(m, conns, 10*time.Second, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		cens[r] = cen
	}

	rng := rand.New(rand.NewSource(8))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	want := m.Net.Forward(x, false)

	var wg sync.WaitGroup
	errs := make([]error, centrals)
	for r, cen := range cens {
		wg.Add(1)
		go func(r int, cen *Central) {
			defer wg.Done()
			for i := 0; i < images; i++ {
				out, st, err := cen.Infer(x)
				if err != nil {
					errs[r] = err
					return
				}
				if st.TilesMissed != 0 {
					t.Errorf("central %d image %d missed %d tiles over loopback", r, i, st.TilesMissed)
					return
				}
				if !out.Equal(want, 1e-4) {
					t.Errorf("central %d image %d diverged from local execution", r, i)
					return
				}
			}
		}(r, cen)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("central %d: %v", r, err)
		}
	}

	// Both sessions should still be attached on every node, and the
	// per-session counters must account for every tile exactly once:
	// centrals × images × tiles-per-image in total across the pool.
	var tiles uint64
	for i, ns := range servers {
		if got := ns.ActiveSessions(); got != centrals {
			t.Fatalf("node %d serves %d sessions, want %d", i, got, centrals)
		}
		for _, s := range ns.Sessions() {
			tiles += s.Tiles
		}
	}
	if want := uint64(centrals * images * opt.Grid.Rows * opt.Grid.Cols); tiles != want {
		t.Fatalf("pool computed %d tiles, want exactly %d", tiles, want)
	}

	// Each Central's sessions carry independent clock-offset estimates
	// fed by that session's own task round-trips.
	for r, cen := range cens {
		for _, s := range cen.DebugSessions() {
			if s.OffsetSamples == 0 {
				t.Fatalf("central %d node %d session has no clock-offset samples", r, s.Node)
			}
		}
	}

	for _, cen := range cens {
		cen.Shutdown()
	}
	for _, stop := range stops {
		stop()
	}
	check()
}
