package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// TestBreakdownPhasesSumExactly: for any causally plausible tile journey
// — monotone Central timestamps, monotone Conv timestamps, and a round
// trip at least as long as the tile's stay on the node — the six phases
// are each non-negative and sum to the end-to-end latency exactly,
// regardless of how wrong the clock-offset estimate is. That invariance
// is the design property: the offset only splits uplink/downlink.
func TestBreakdownPhasesSumExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		enq := rng.Int63n(1 << 40)
		sent := enq + rng.Int63n(1<<20)
		// Conv clock: arbitrary epoch, monotone stamps.
		convRecv := rng.Int63n(1 << 40)
		tm := &ConvTiming{RecvNs: convRecv}
		tm.DecodeNs = convRecv + rng.Int63n(1<<18)
		tm.ComputeStartNs = tm.DecodeNs + rng.Int63n(1<<20)
		tm.ComputeEndNs = tm.ComputeStartNs + rng.Int63n(1<<22)
		tm.EncodeNs = tm.ComputeEndNs + rng.Int63n(1<<18)
		tm.SendNs = tm.EncodeNs + rng.Int63n(1<<16)
		residence := tm.SendNs - tm.RecvNs
		recv := sent + residence + rng.Int63n(1<<20) // network ≥ 0
		collect := recv + rng.Int63n(1<<18)
		offset := rng.Int63n(1<<30) - (1 << 29) // wildly wrong is fine

		tb := newTileBreakdown(3, 1, enq, sent, recv, collect, tm, offset)
		for p, d := range tb.Phase {
			if d < 0 {
				t.Logf("phase %s negative: %v", PhaseNames[p], d)
				return false
			}
		}
		return tb.PhaseSum() == tb.Total && tb.Total == time.Duration(collect-enq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownWithoutTimingStillCloses(t *testing.T) {
	tb := newTileBreakdown(0, 2, 100, 250, 900, 1000, nil, 0)
	if tb.PhaseSum() != tb.Total || tb.Total != 900 {
		t.Fatalf("coarse split must close: sum %v total %v", tb.PhaseSum(), tb.Total)
	}
	if tb.Phase[PhaseDispatchQueue] != 150 || tb.Phase[PhaseCompute] != 650 || tb.Phase[PhaseCollect] != 100 {
		t.Fatalf("coarse phases %v", tb.Phase)
	}
	if tb.Phase[PhaseUplink] != 0 || tb.Phase[PhaseDownlink] != 0 || tb.Phase[PhaseNodeQueue] != 0 {
		t.Fatalf("timing-free phases must stay zero: %v", tb.Phase)
	}
}

func TestBreakdownOffsetSplitsNetwork(t *testing.T) {
	// 100ns uplink, 300ns on the node, 200ns downlink; the Conv clock
	// runs 5000ns ahead of the Central's, so the correct additive offset
	// is −5000. With the exact offset the split is exact.
	tm := &ConvTiming{RecvNs: 5100, DecodeNs: 5150, ComputeStartNs: 5200, ComputeEndNs: 5350, EncodeNs: 5380, SendNs: 5400}
	tb := newTileBreakdown(0, 0, 0, 0, 600, 600, tm, -5000)
	if tb.Phase[PhaseUplink] != 100 || tb.Phase[PhaseDownlink] != 200 {
		t.Fatalf("split %v/%v, want 100/200", tb.Phase[PhaseUplink], tb.Phase[PhaseDownlink])
	}
	if tb.Phase[PhaseNodeQueue] != 100 || tb.Phase[PhaseCompute] != 200 {
		t.Fatalf("node phases %v", tb.Phase)
	}
	// A grossly wrong offset clamps the split but never the sum.
	tb2 := newTileBreakdown(0, 0, 0, 0, 600, 600, tm, -9000)
	if tb2.Phase[PhaseUplink] != 0 || tb2.Phase[PhaseDownlink] != 300 {
		t.Fatalf("clamped split %v/%v", tb2.Phase[PhaseUplink], tb2.Phase[PhaseDownlink])
	}
	if tb2.PhaseSum() != tb2.Total {
		t.Fatalf("clamping broke the sum: %v vs %v", tb2.PhaseSum(), tb2.Total)
	}
}

func TestBreakdownMeansAndText(t *testing.T) {
	b := &Breakdown{Image: 1, TraceID: 42}
	tm := &ConvTiming{RecvNs: 10, DecodeNs: 12, ComputeStartNs: 20, ComputeEndNs: 90, EncodeNs: 95, SendNs: 100}
	for i := 0; i < 4; i++ {
		b.Tiles = append(b.Tiles, newTileBreakdown(i, i%2, 0, 5, 120, 130, tm, 0))
	}
	means := b.MeanPhases()
	var sum time.Duration
	for _, m := range means {
		sum += m
	}
	if sum != b.MeanTotal() {
		t.Fatalf("mean phases %v don't sum to mean total %v", sum, b.MeanTotal())
	}
	var sb strings.Builder
	b.WriteText(&sb)
	for _, name := range PhaseNames {
		if !strings.Contains(sb.String(), name) {
			t.Fatalf("text rendering missing phase %q: %s", name, sb.String())
		}
	}
	var empty *Breakdown
	empty.WriteText(&sb) // must not panic
	if empty.MeanTotal() != 0 {
		t.Fatal("nil breakdown mean must be 0")
	}
}

// imageOf builds an image's breakdown of tiles tiles over nodes nodes,
// tile i on node i%nodes with the phases tile(node) gives it, so the
// last tile is node (tiles-1)%nodes's.
func imageOf(tiles, nodes int, tile func(node int) TileBreakdown) *Breakdown {
	b := &Breakdown{}
	for i := 0; i < tiles; i++ {
		tb := tile(i % nodes)
		tb.Tile, tb.Node = i, i%nodes
		b.Tiles = append(b.Tiles, tb)
	}
	return b
}

// phases is a tile with the three phases Critical weighs.
func phases(compute, uplink, queue time.Duration) TileBreakdown {
	var tb TileBreakdown
	tb.Phase[PhaseCompute], tb.Phase[PhaseUplink], tb.Phase[PhaseNodeQueue] = compute, uplink, queue
	return tb
}

// TestBreakdownCritical: the last tile's node is blamed only for a
// phase above its peers' median, so a shift on every node (a pipeline
// filling its node queues) blames no one, where a tracker judging each
// node by its own history raised a lasting alarm on all of them.
func TestBreakdownCritical(t *testing.T) {
	const ms, us = time.Millisecond, time.Microsecond
	every := func(tb TileBreakdown) func(int) TileBreakdown {
		return func(int) TileBreakdown { return tb }
	}
	// on3 gives node 3 slow and every other node fast.
	on3 := func(slow, fast TileBreakdown) func(int) TileBreakdown {
		return func(k int) TileBreakdown {
			if k == 3 {
				return slow
			}
			return fast
		}
	}
	healthy := phases(10*ms, 2*ms, 10*us)
	for _, tc := range []struct {
		name        string
		b           *Breakdown
		node, phase int
		excess      time.Duration
	}{
		{"nil", nil, -1, -1, 0},
		{"empty", &Breakdown{}, -1, -1, 0},
		{"steady", imageOf(16, 4, every(healthy)), 3, -1, 0},
		{"node_queue 10µs to 1ms on every node", imageOf(16, 4, every(phases(10*ms, 2*ms, ms))), 3, -1, 0},
		{"compute ×5 on node 3", imageOf(16, 4, on3(phases(50*ms, 2*ms, 10*us), healthy)), 3, PhaseCompute, 40 * ms},
		{"uplink ×20 on node 3", imageOf(16, 4, on3(phases(10*ms, 40*ms, 10*us), healthy)), 3, PhaseUplink, 38 * ms},
		{"healed, then compute ×1.3 on every node", imageOf(16, 4, every(phases(13*ms, 2*ms, 10*us))), 3, -1, 0},
		{"a slow peer, a healthy node last", imageOf(16, 4, func(k int) TileBreakdown {
			if k == 0 {
				return phases(50*ms, 2*ms, 10*us)
			}
			return healthy
		}), 3, -1, 0},
		{"an even peer count takes the upper median", imageOf(5, 5, func(k int) TileBreakdown {
			return phases(time.Duration(k+1)*ms, 0, 0)
		}), 4, PhaseCompute, 2 * ms},
		{"one node only: its largest phase", imageOf(4, 1, every(phases(10*ms, 12*ms, ms))), 0, PhaseUplink, 12 * ms},
	} {
		node, phase, excess := tc.b.Critical()
		if node != tc.node || phase != tc.phase || excess != tc.excess {
			t.Errorf("%s: Critical() = (%d, %d, %v), want (%d, %d, %v)",
				tc.name, node, phase, excess, tc.node, tc.phase, tc.excess)
		}
	}

	b := imageOf(16, 4, on3(phases(50*ms, 2*ms, 10*us), healthy))
	if n := testing.AllocsPerRun(100, func() { b.Critical() }); n != 0 {
		t.Errorf("Critical on a 4×4 image allocates %v times, want 0", n)
	}
}
