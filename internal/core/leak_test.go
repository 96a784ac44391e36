package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"runtime/pprof"
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

// TestNoGoroutineLeakAfterConnFailure kills a connection mid-stream:
// the session loops for that node must exit (no dialer → dead forever)
// and shutdown must reap everything else.
// TestNoGoroutineLeakAfterMembershipChurn exercises the live
// join/leave path: a node added mid-run must receive tiles on the very
// next allocation (one image = one realloc interval), and retiring it
// while images are in flight must fail its unsettled tiles over to the
// survivors without stranding a single goroutine.
func TestNoGoroutineLeakAfterMembershipChurn(t *testing.T) {
	check := leakCheck(t)
	cfg := models.VGGSim()
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	m, err := models.Build(cfg, opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	c, _, stop := buildRuntimeConns(t, m, 2, 5*time.Second)

	rng := rand.New(rand.NewSource(31))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	want := m.Net.Forward(x, false)
	for i := 0; i < 2; i++ { // warm the scheduler statistics
		if _, _, err := c.Infer(x); err != nil {
			t.Fatal(err)
		}
	}

	// Join: a third worker over a fresh pipe, slow enough that tiles
	// queued on it are genuinely unsettled when we retire it below.
	a, b := Pipe()
	w := NewWorker(3, m)
	w.SetDelay(2 * time.Millisecond)
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() { defer wwg.Done(); _ = w.Serve(context.Background(), b) }()
	k := c.AddNode(a, nil)
	if k != 2 {
		t.Fatalf("joined node got index %d, want 2", k)
	}

	// The joiner must be in the allocation of the very next image: its
	// scheduler estimate starts at the initial value, so Algorithm 3 has
	// no reason to skip it.
	out, st, err := c.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Alloc) != 3 || st.Alloc[k] == 0 {
		t.Fatalf("joined node absent from the next allocation: %v", st.Alloc)
	}
	if st.TilesMissed != 0 || !out.Equal(want, 1e-4) {
		t.Fatalf("inference with the joined node diverged (missed %d)", st.TilesMissed)
	}

	// Leave: retire the joiner while images are in flight so it holds
	// unsettled tiles. Every in-flight image must still complete — the
	// transition image may zero-fill, nothing may error or hang.
	var flights []*Inflight
	for i := 0; i < 3; i++ {
		h, err := c.InferAsync(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		flights = append(flights, h)
	}
	if !c.RemoveNode(k) {
		t.Fatal("RemoveNode(2) should have named a live node")
	}
	misses := 0
	for i, h := range flights {
		out, st, err := h.Wait()
		if err != nil {
			t.Fatalf("in-flight image %d after leave: %v", i, err)
		}
		if st.TilesMissed > 0 {
			misses++
			continue
		}
		if !out.Equal(want, 1e-4) {
			t.Fatalf("in-flight image %d after leave diverged", i)
		}
	}
	_ = misses // zero-filled transitions are legitimate; hangs and errors are not

	// Steady state after the leave: the tombstone stays in the view but
	// gets no work, and outputs are exact again.
	out, st, err = c.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Alloc) != 3 || st.Alloc[k] != 0 {
		t.Fatalf("retired node still allocated tiles: %v", st.Alloc)
	}
	if st.TilesMissed != 0 || !out.Equal(want, 1e-4) {
		t.Fatalf("post-leave inference diverged (missed %d)", st.TilesMissed)
	}

	stop()
	wwg.Wait()
	check()
}

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
