package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/tensor"
)

// leakCheck snapshots the goroutine count and returns an assertion that
// the runtime sheds everything it spawned — session supervisors, send
// and recv loops, worker watchdogs — once the Central is shut down. The
// count is polled because goroutine teardown is asynchronous.
func leakCheck(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if runtime.NumGoroutine() <= base {
				return
			}
			if time.Now().After(deadline) {
				var buf bytes.Buffer
				_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
				t.Fatalf("goroutine leak: baseline %d, now %d\n%s",
					base, runtime.NumGoroutine(), buf.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestNoGoroutineLeakAfterShutdown pins the basic hygiene contract: a
// healthy run leaves nothing behind.
func TestNoGoroutineLeakAfterShutdown(t *testing.T) {
	check := leakCheck(t)
	opt := models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}}
	c, _, stop := buildRuntime(t, opt, 4, 5*time.Second)
	rng := rand.New(rand.NewSource(21))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	for i := 0; i < 3; i++ {
		if _, _, err := c.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	check()
}

// TestNoGoroutineLeakWithMissedTiles: an Infer whose tiles blow the T_L
// deadline must not strand a collector — the old runtime leaked its
// per-image fan-out goroutines via `go wg.Wait()` here.
func TestNoGoroutineLeakWithMissedTiles(t *testing.T) {
	check := leakCheck(t)
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	c, _, stop := buildRuntime(t, opt, 2, time.Nanosecond)
	rng := rand.New(rand.NewSource(22))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	for i := 0; i < 3; i++ {
		if _, _, err := c.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	// Give the overdue results time to arrive and be dropped as stale.
	time.Sleep(50 * time.Millisecond)
	stop()
	check()
}

// TestNoGoroutineLeakAfterNodeLeaves: a node leaves by its connection
// failing. Closing it while images are in flight must fail its
// unsettled tiles over to the survivors — every in-flight image
// returns, none errors or hangs — and the next image runs exact on the
// survivors without stranding a single goroutine.
func TestNoGoroutineLeakAfterNodeLeaves(t *testing.T) {
	check := leakCheck(t)
	cfg := models.VGGSim()
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	m, err := models.Build(cfg, opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	// The leaving node is slow enough that tiles queued on it are
	// genuinely unsettled when its connection closes.
	const k = 2
	a, b := Pipe()
	w, _ := slowWorker(k+1, m, 2*time.Millisecond)
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() { defer wwg.Done(); _ = w.Serve(context.Background(), b) }()
	c, _, stop := buildRuntimeConns(t, m, 2, 5*time.Second, func(cfg *CentralConfig) {
		cfg.Conns = append(cfg.Conns, a)
	})

	rng := rand.New(rand.NewSource(31))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	want := m.Net.Forward(x, false)
	for i := 0; i < 2; i++ { // warm the scheduler statistics
		if _, _, err := c.Infer(x); err != nil {
			t.Fatal(err)
		}
	}

	var flights []*Inflight
	for i := 0; i < 3; i++ {
		h, err := c.InferAsync(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		flights = append(flights, h)
	}
	a.Close()
	for i, h := range flights {
		out, st, err := h.Wait()
		if err != nil {
			t.Fatalf("in-flight image %d after leave: %v", i, err)
		}
		if i == 0 && st.Alloc[k] == 0 {
			t.Fatalf("the leaving node held no tile of the first in-flight image: %v", st.Alloc)
		}
		// A zero-filled transition is legitimate; a wrong answer is not.
		if st.TilesMissed == 0 && !out.Equal(want, 1e-4) {
			t.Fatalf("in-flight image %d after leave diverged", i)
		}
	}

	// Steady state after the leave: the dead node stays in the view but
	// gets no work, and outputs are exact again.
	out, st, err := c.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Alloc) != 3 || st.Alloc[k] != 0 {
		t.Fatalf("departed node still allocated tiles: %v", st.Alloc)
	}
	if st.TilesMissed != 0 || !out.Equal(want, 1e-4) {
		t.Fatalf("post-leave inference diverged (missed %d)", st.TilesMissed)
	}

	stop()
	wwg.Wait()
	check()
}

// TestNodeServerRejectsNonTaskFrames: tasks are the only frames a Conv
// node reads. A session fed kind 3 or 4 (shutdown and probe in earlier
// revisions) must end with a protocol error and shed every goroutine it
// spawned, before any model is touched.
func TestNodeServerRejectsNonTaskFrames(t *testing.T) {
	for _, kind := range []MsgKind{3, 4} {
		check := leakCheck(t)
		a, b := Pipe()
		ns := NewNodeServer(NewWorker(1, nil), 0)
		if err := a.Send(&Message{Kind: kind, Payload: make([]byte, 8)}); err != nil {
			t.Fatal(err)
		}
		err := ns.ServeConn(context.Background(), b)
		if err == nil || !strings.Contains(err.Error(), "unexpected message kind") {
			t.Fatalf("kind %d: session ended with %v, want an unexpected-kind error", kind, err)
		}
		if n := ns.ActiveSessions(); n != 0 {
			t.Fatalf("kind %d: %d sessions still attached", kind, n)
		}
		a.Close()
		check()
	}
}

// TestNoGoroutineLeakAfterConnFailure kills a connection mid-stream:
// the session loops for that node must exit (no dialer → dead forever)
// and shutdown must reap everything else.
func TestNoGoroutineLeakAfterConnFailure(t *testing.T) {
	check := leakCheck(t)
	cfg := models.VGGSim()
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	m, err := models.Build(cfg, opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	c, conns, stop := buildRuntimeConns(t, m, 2, 5*time.Second)
	rng := rand.New(rand.NewSource(23))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	if _, _, err := c.Infer(x); err != nil {
		t.Fatal(err)
	}
	conns[0].Close() // mid-stream transport failure
	for i := 0; i < 2; i++ {
		if _, _, err := c.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	check()
}
