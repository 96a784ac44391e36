package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/nn"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// holdLayer is an identity layer that first sleeps for the current hold:
// appended to a node's front, it makes the node slow in its compute.
type holdLayer struct {
	d atomic.Int64 // ns
}

func (h *holdLayer) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	time.Sleep(time.Duration(h.d.Load()))
	return x
}
func (h *holdLayer) Backward(g *tensor.Tensor) *tensor.Tensor { return g }
func (h *holdLayer) Params() []*nn.Param                      { return nil }
func (h *holdLayer) Name() string                             { return "hold" }

// slowWorker returns a worker over a copy of m whose front ends in a
// hold layer holding every tile for d, and the layer, so the test can
// change the hold mid-run. The copy shares m's weights.
func slowWorker(id int, m *models.Model, d time.Duration) (*Worker, *holdLayer) {
	hold := new(holdLayer)
	hold.d.Store(int64(d))
	cp := *m
	cp.Front = nn.NewSequential(m.Front.Name(), append(slices.Clone(m.Front.Layers), hold)...)
	return NewWorker(id, &cp), hold
}

// slowLink holds every message the Central receives over Conn for the
// current delay before handing it on: the results of the node behind it
// reach the Central late, as over a slow link, while the node itself
// computes at full speed.
type slowLink struct {
	Conn
	delay atomic.Int64 // ns
}

func (l *slowLink) Recv() (*Message, error) {
	m, err := l.Conn.Recv()
	if d := time.Duration(l.delay.Load()); err == nil && d > 0 {
		time.Sleep(d)
	}
	return m, err
}

// probationCadence is sched's probation interval: how often a starved
// node is re-admitted.
const probationCadence = 2 * time.Second

// TestLiveRuntimeAdaptsToSlowWorker runs the real distributed protocol
// with one Conv node made slow — in its compute, or on the link that
// carries its results back. Either way its results miss T_L, and
// Algorithm 2's EWMA (driven by results received within T_L) alone must
// shift tiles toward the fast nodes — the live-runtime version of
// Figure 15. Once the fault lifts, the node must be back in the
// allocation within one probation interval plus a few images.
func TestLiveRuntimeAdaptsToSlowWorker(t *testing.T) {
	cfg := models.VGGSim()
	m, err := models.Build(cfg, models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	const workers, slow = 4, 3
	for _, tc := range []struct {
		name string
		// tl is T_L; compute and link slow the last node's compute per
		// tile and the delivery of each of its results.
		tl, compute, link time.Duration
		// shed: the slow node must end the fault with no tiles at all.
		shed bool
	}{
		// The fast nodes always make T_L and the slow node's later
		// tiles miss it (zero-filled — accuracy cost — but the
		// scheduler learns). A node slow enough to keep missing may
		// legitimately decay to zero work, so it need not.
		{name: "slow-compute", tl: 250 * time.Millisecond, compute: 80 * time.Millisecond},
		// Every result of the node behind the slow link misses the
		// tight T_L, so Algorithm 2 credits it nothing and sheds it.
		{name: "slow-link", tl: 100 * time.Millisecond, link: 300 * time.Millisecond, shed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conns := make([]Conn, workers)
			ws := make([]*Worker, workers)
			var hold *holdLayer
			var wg sync.WaitGroup
			for i := range ws {
				a, b := Pipe()
				conns[i], ws[i] = a, NewWorker(i+1, m)
				if i == slow {
					ws[i], hold = slowWorker(i+1, m, tc.compute)
				}
				wg.Add(1)
				go func() { defer wg.Done(); _ = ws[i].Serve(context.Background(), b) }()
			}
			link := &slowLink{Conn: conns[slow]}
			link.delay.Store(int64(tc.link))
			conns[slow] = link
			flight := telemetry.NewFlightRecorder(0)
			c, err := CentralConfig{Model: m, Conns: conns, TL: tc.tl, Gamma: 0.9, Flight: flight}.Start()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { c.Shutdown(); wg.Wait() }()

			rng := rand.New(rand.NewSource(11))
			x := tensor.New(1, 3, 32, 32)
			x.RandN(rng, 1)
			infer := func() InferStats {
				_, st, err := c.Infer(x)
				if err != nil {
					t.Fatal(err)
				}
				if st.Alloc.Total() != 16 {
					t.Fatalf("tiles lost: %v", st.Alloc)
				}
				return st
			}

			var last InferStats
			for i := 0; i < 8; i++ {
				last = infer()
			}
			for k := 0; k < slow; k++ {
				if last.Alloc[k] <= last.Alloc[slow] {
					t.Fatalf("fast node %d got %d tiles, not more than slow node's %d: %v",
						k+1, last.Alloc[k], last.Alloc[slow], last.Alloc)
				}
			}
			if tc.shed && last.Alloc[slow] != 0 {
				t.Fatalf("slow node still holds %d tiles after 8 images: %v", last.Alloc[slow], last.Alloc)
			}

			// Lift the fault. A shed node has starved by now, so only
			// probation can give it tiles again.
			hold.d.Store(0)
			link.delay.Store(0)
			due := time.Now().Add(probationCadence)
			for late := 0; ; {
				if infer().Alloc[slow] > 0 {
					break
				}
				if time.Now().After(due) {
					if late++; late > 5 {
						t.Fatalf("healed node not re-admitted within %v plus %d images", probationCadence, late-1)
					}
				}
				time.Sleep(10 * time.Millisecond)
			}
			// A revival is session-scoped: image 0, tile −1, the node.
			revivals := 0
			for _, ev := range flight.Events() {
				if ev.Kind != "probation-revive" {
					continue
				}
				if revivals++; ev.Image != 0 || ev.Tile != -1 || ev.Node != slow {
					t.Fatalf("revival event %+v, want image 0, tile -1, node %d", ev, slow)
				}
			}
			if tc.shed && revivals == 0 {
				t.Fatal("the shed node came back without a probation-revive event")
			}
		})
	}
}
