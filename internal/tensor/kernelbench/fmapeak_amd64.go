//go:build amd64 && !noasm

package kernelbench

import (
	"sync"
	"time"

	"adcnn/internal/tensor"
)

// fmaLoopZMM and fmaLoopYMM (fmapeak_amd64.s) retire 12 independent
// vector fused multiply-adds per iteration, 16 and 8 lanes wide.
//
//go:noescape
func fmaLoopZMM(iters int)

//go:noescape
func fmaLoopYMM(iters int)

// fmaPeakGFlops measures what the FMA units deliver with nothing else in
// the way, on the widest vectors the kernel tier uses, threads at once.
// Zero when the host has no FMA tier.
func fmaPeakGFlops(threads int) float64 {
	var loop func(int)
	var lanes float64
	switch tensor.DetectedKernelTier() {
	case tensor.TierAVX512:
		loop, lanes = fmaLoopZMM, 16
	case tensor.TierAVX2:
		loop, lanes = fmaLoopYMM, 8
	default:
		return 0
	}
	const iters = 20_000_000
	loop(iters / 10) // wake the wide units
	var best time.Duration
	for rep := 0; rep < 5; rep++ {
		var wg sync.WaitGroup
		start := time.Now()
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				loop(iters)
			}()
		}
		wg.Wait()
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return float64(threads) * iters * 12 * lanes * 2 / float64(best.Nanoseconds())
}
