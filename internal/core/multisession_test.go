package core

import (
	"context"
	"errors"
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

// TestClusterSharedQueueDrainsAndRejectsAfterShutdown drives a
// 2-replica Cluster over a shared NodeServer pool. Every image is
// queued before the pool serves a single tile, so each replica's
// dispatcher takes one image and both must execute; every image must
// deliver its result exactly once and exactly right, Shutdown must
// drain, and a Submit after Shutdown must fail cleanly — all without
// leaking a goroutine.
func TestClusterSharedQueueDrainsAndRejectsAfterShutdown(t *testing.T) {
	check := leakCheck(t)
	cfg := models.VGGSim()
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	m, err := models.Build(cfg, opt, 42)
	if err != nil {
		t.Fatal(err)
	}

	const nodes, replicas, images = 2, 2, 10
	servers := make([]*NodeServer, nodes)
	for i := range servers {
		servers[i] = NewNodeServer(NewWorker(i+1, m), 0)
	}
	type peer struct {
		ns   *NodeServer
		conn Conn
	}
	var peers []peer // served only once every image is queued
	build := func(r int) (*Central, error) {
		conns := make([]Conn, nodes)
		for i, ns := range servers {
			a, b := Pipe()
			conns[i] = a
			peers = append(peers, peer{ns, b})
		}
		return NewCentral(m, conns, 5*time.Second, 0.9)
	}
	cl, err := NewCluster(build, ClusterOptions{Replicas: replicas, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	want := m.Net.Forward(x, false)

	chans := make([]<-chan ClusterResult, images)
	for i := range chans {
		ch, err := cl.Submit(context.Background(), x)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	// Each dispatcher takes one image, then waits for its pipeline slot.
	for deadline := time.Now().Add(5 * time.Second); len(cl.queue) > images-replicas; {
		if time.Now().After(deadline) {
			t.Fatalf("%d images still queued, want %d taken", len(cl.queue), replicas)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p peer) { defer wg.Done(); _ = p.ns.ServeConn(ctx, p.conn) }(p)
	}
	executed := make([]int, replicas)
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("image %d: %v", i, r.Err)
		}
		if !r.Out.Equal(want, 1e-4) {
			t.Fatalf("image %d diverged from local execution", i)
		}
		executed[r.Replica]++
		select {
		case extra := <-ch:
			t.Fatalf("image %d delivered twice: %+v", i, extra)
		default: // exactly once
		}
	}
	for r, n := range executed {
		if n == 0 {
			t.Fatalf("replica %d executed no image: %v", r, executed)
		}
	}

	cl.Shutdown()
	if _, err := cl.Submit(context.Background(), x); err == nil {
		t.Fatal("submit after shutdown must fail")
	}
	cancel()
	wg.Wait()
	check()
}

// TestClusterSubmitOnFullQueueHonoursContext: a Submit blocked on a
// full queue returns ctx.Err() when its context ends, and the images
// already queued still complete.
func TestClusterSubmitOnFullQueueHonoursContext(t *testing.T) {
	check := leakCheck(t)
	m, err := models.Build(models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	var peer Conn // served only once the queue has been full
	build := func(int) (*Central, error) {
		a, b := Pipe()
		peer = b
		return NewCentral(m, []Conn{a}, 10*time.Second, 0.9)
	}
	cl, err := NewCluster(build, ClusterOptions{Replicas: 1, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// No tile is served yet: the replica's one pipeline slot holds the
	// first image and the queue fills behind it.
	x := tensor.New(1, 3, 32, 32)
	chans := make([]<-chan ClusterResult, clusterQueueCap+1)
	for i := range chans {
		ch, err := cl.Submit(context.Background(), x)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	ctx, cancelSubmit := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelSubmit()
	if _, err := cl.Submit(ctx, x); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("submit on a full queue returned %v, want %v", err, context.DeadlineExceeded)
	}

	srv, stop := context.WithCancel(context.Background())
	defer stop()
	ns := NewNodeServer(NewWorker(1, m), 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = ns.ServeConn(srv, peer) }()
	for i, ch := range chans {
		if r := <-ch; r.Err != nil || r.Stats.TilesMissed != 0 {
			t.Fatalf("image %d: err %v, %d tiles missed", i, r.Err, r.Stats.TilesMissed)
		}
	}
	cl.Shutdown()
	stop()
	wg.Wait()
	check()
}
