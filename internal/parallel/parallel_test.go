package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	f := func(seed int64) bool {
		n := int(uint64(seed) % 500)
		counts := make([]int64, n)
		For(n, func(i int) { atomic.AddInt64(&counts[i], 1) })
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, func(int) { called = true })
	For(-3, func(int) { called = true })
	if called {
		t.Fatal("fn must not run for n <= 0")
	}
}

func TestForWorkersSingle(t *testing.T) {
	order := make([]int, 0, 5)
	ForWorkers(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("single-worker must run in order: %v", order)
		}
	}
}

func TestForWorkersMoreWorkersThanWork(t *testing.T) {
	var sum int64
	ForWorkers(3, 64, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 3 {
		t.Fatalf("sum = %d, want 3", sum)
	}
}

func TestForChunkedCoversEveryIndexOnce(t *testing.T) {
	f := func(seed int64) bool {
		n := int(uint64(seed) % 500)
		chunk := 1 + int(uint64(seed)%17)
		counts := make([]int64, n)
		ForChunked(n, chunk, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
			}
			if hi-lo > chunk {
				t.Errorf("range [%d,%d) wider than chunk %d", lo, hi, chunk)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt64(&counts[i], 1)
			}
		})
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForChunkedZeroAndNegative(t *testing.T) {
	called := false
	ForChunked(0, 4, func(int, int) { called = true })
	ForChunked(-7, 4, func(int, int) { called = true })
	if called {
		t.Fatal("fn must not run for n <= 0")
	}
}

func TestForChunkedDefaultChunk(t *testing.T) {
	// chunk <= 0 defaults to an even split; every index still covered once.
	counts := make([]int64, 1000)
	ForChunked(1000, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt64(&counts[i], 1)
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestForChunkedWorkersConcurrent(t *testing.T) {
	// Explicit worker count so goroutines actually spawn even on a
	// single-CPU box; the race detector then sees the concurrent paths.
	counts := make([]int64, 333)
	ForChunkedWorkers(len(counts), 7, 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt64(&counts[i], 1)
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestForChunkedWorkersSingleInOrder(t *testing.T) {
	var ranges [][2]int
	ForChunkedWorkers(10, 3, 1, func(lo, hi int) { ranges = append(ranges, [2]int{lo, hi}) })
	want := [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}
	if len(ranges) != len(want) {
		t.Fatalf("ranges = %v, want %v", ranges, want)
	}
	for i, r := range ranges {
		if r != want[i] {
			t.Fatalf("ranges = %v, want %v", ranges, want)
		}
	}
}

// TestFanOutAllocatesOnce: a fanned-out call allocates its one shared
// record at most — the calling goroutine works as one of the workers and
// the spawned ones start straight from the record — with the loop
// bodies' own closures made once, outside the measured call.
func TestFanOutAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on goroutine start")
	}
	var sum atomic.Int64
	ranges := func(lo, hi int) { sum.Add(int64(hi - lo)) }
	each := func(i int) { sum.Add(1) }
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"ForChunkedWorkers", func() { ForChunkedWorkers(64, 4, 2, ranges) }},
		{"ForWorkers", func() { ForWorkers(16, 2, each) }},
	} {
		tc.call()
		allocs := testing.AllocsPerRun(200, tc.call)
		t.Logf("%s: %v", tc.name, allocs)
		if allocs > 1 {
			t.Errorf("%s at 2 workers allocates %v per call, want at most 1", tc.name, allocs)
		}
	}
	if got := sum.Load(); got != 202*64+202*16 {
		t.Fatalf("covered %d indices, want %d", got, 202*64+202*16)
	}
}

// TestFanOutConcurrentCallers: loops fanned out from several goroutines
// at once share the pooled job records, and each still covers its own
// indices exactly once.
func TestFanOutConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				counts := make([]int64, 97)
				ForChunkedWorkers(len(counts), 5, 3, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt64(&counts[i], 1)
					}
				})
				ForWorkers(len(counts), 3, func(i int) { atomic.AddInt64(&counts[i], 1) })
				for i, n := range counts {
					if n != 2 {
						t.Errorf("index %d covered %d times, want 2", i, n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
