package core

import (
	"math/rand"
	"runtime/debug"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/tensor"
)

// inferBudget is the allocation budget of one 4×4 VGG-sim image through
// an in-process Central and two Conv nodes with tracing off, both sides
// of the wire counted. It measured 359 once the inference chains, the
// split, the merge and the result decode recycled their tensors (713
// before), 343 once the pending table kept its rows by value, and 318
// once sched.Allocate stopped growing a tie list per tile. 230 of those
// are answers, two allocations each: the 7 front blocks' answers of each
// of the 16 tiles and the back's 3 blocks and head. The rest is
// per-image bookkeeping: the allocation plan, one task message per tile,
// the in-process pipe's frames.
const inferBudget = 330

// TestInferAllocationBudget holds a whole image to inferBudget, so a
// stage that goes back to allocating its scratch per tile fails here.
func TestInferAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	c, _, stop := buildRuntime(t, models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}}, 2, 10*time.Second)
	defer stop()
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(1)), 1)
	for i := 0; i < 20; i++ { // prime the pools and the scheduler
		if _, _, err := c.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	// No GC while counting, so no pool is emptied mid-count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(100, func() {
		if _, st, err := c.Infer(x); err != nil || st.TilesMissed != 0 {
			t.Fatalf("infer: %v, %d tiles missed", err, st.TilesMissed)
		}
	})
	t.Logf("%.1f allocations per image", allocs)
	if allocs > inferBudget {
		t.Fatalf("an image allocates %.1f times, budget %d", allocs, inferBudget)
	}
}
