// Package parallel provides the small data-parallel helpers the compute
// kernels use: a parallel for-loop over an index range with bounded
// workers. Stdlib-only (sync + runtime).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n), spreading iterations over up to
// GOMAXPROCS goroutines. It returns when all iterations finish. For tiny
// n it runs inline to avoid goroutine overhead. fn must be safe to call
// concurrently for distinct i.
func For(n int, fn func(i int)) {
	ForWorkers(n, runtime.GOMAXPROCS(0), fn)
}

// ForChunked runs fn(lo, hi) over disjoint index ranges that cover
// [0, n), each at most chunk wide. Handing workers a range instead of a
// single index amortises the atomic work-stealing counter over chunk
// iterations, which matters when the loop body is tiny (a few hundred
// nanoseconds) — the GEMM row scheduler is the canonical caller. A
// non-positive chunk defaults to ceil(n/GOMAXPROCS). fn must be safe to
// call concurrently for disjoint ranges.
func ForChunked(n, chunk int, fn func(lo, hi int)) {
	ForChunkedWorkers(n, chunk, runtime.GOMAXPROCS(0), fn)
}

// ForChunkedWorkers is ForChunked with an explicit worker bound.
func ForChunkedWorkers(n, chunk, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		if workers < 1 {
			workers = 1
		}
		chunk = (n + workers - 1) / workers
	}
	nChunks := (n + chunk - 1) / chunk
	if workers > nChunks {
		workers = nChunks
	}
	if workers <= 1 || nChunks == 1 {
		for lo := 0; lo < n; lo += chunk {
			fn(lo, min(lo+chunk, n))
		}
		return
	}
	fanOut(n, chunk, workers, fn, nil)
}

// ForWorkers is For with an explicit worker bound.
func ForWorkers(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	fanOut(n, 1, workers, nil, fn)
}

// job is one fanned-out loop: everything its workers share lives in
// this one record, recycled through jobs. Workers claim chunks
// [lo, lo+chunk) of [0, n) through next until none is left; the ranges
// are disjoint, so the outcome does not depend on which worker ran which.
type job struct {
	next     atomic.Int64
	wg       sync.WaitGroup
	n, chunk int
	ranges   func(lo, hi int) // one of ranges and each is set
	each     func(i int)
}

var jobs = sync.Pool{New: func() any { return new(job) }}

// fanOut runs the loop on workers goroutines — workers−1 spawned ones
// and the caller's — and returns once every chunk is done. The one
// allocation is the closure each go statement makes: the record itself
// comes from jobs and goes back once the last worker has signed off.
func fanOut(n, chunk, workers int, ranges func(lo, hi int), each func(i int)) {
	j := jobs.Get().(*job)
	j.n, j.chunk, j.ranges, j.each = n, chunk, ranges, each
	j.next.Store(0)
	j.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go j.run()
	}
	j.work()
	j.wg.Wait()
	j.ranges, j.each = nil, nil
	jobs.Put(j)
}

// run is a spawned worker.
func (j *job) run() {
	defer j.wg.Done()
	j.work()
}

// work claims and runs chunks until none is left.
func (j *job) work() {
	for {
		lo := int(j.next.Add(int64(j.chunk))) - j.chunk
		if lo >= j.n {
			return
		}
		if j.each != nil {
			j.each(lo)
			continue
		}
		j.ranges(lo, min(lo+j.chunk, j.n))
	}
}
