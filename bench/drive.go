package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adcnn/internal/core"
	"adcnn/internal/dataset"
	"adcnn/internal/tensor"
)

// makeInputs generates the run's distinct images from the seed: smooth
// class patterns plus pixel noise, the repo's synthetic classification
// set at the model's input size.
func makeInputs(w workload, seed int64) []*tensor.Tensor {
	cfg := w.Model()
	set := dataset.Classification(inputImages, 8, cfg.InputC, cfg.InputH, cfg.InputW, 0.15, seed)
	xs := make([]*tensor.Tensor, inputImages)
	for i := range xs {
		xs[i], _ = set.Batch(i, 1)
	}
	return xs
}

// verifyTol is the largest elementwise difference from the oracle an
// output may show. For f32 and the codec (whose oracle applies the same
// quantizer) it is adcnn-central -verify's absolute 1e-4; the tiled run
// is in fact bit-exact. For int8, where per-tile affines differ from the
// oracle's whole-image ones, -verify's 5e-2 was set on sim-scale logits
// of order 1, and full-scale ResNet18 with seeded weights has logits of
// order 100 (worst error about 1): the figure is taken relative to the
// oracle's largest output once that exceeds 1.
func verifyTol(w workload, oracleMax float64) float64 {
	if w.Int8 {
		return 5e-2 * math.Max(1, oracleMax)
	}
	return 1e-4
}

// outputError compares a distributed output with single-process
// inference on the Central's model: the largest elementwise difference
// and the oracle's largest magnitude. Only call while the cluster is
// idle: the oracle runs on the Central's own layer objects.
func (c *cluster) outputError(x, got *tensor.Tensor) (maxErr, oracleMax float64) {
	want := c.model.Net.Forward(x, false)
	if !got.SameShape(want) {
		return math.Inf(1), 0
	}
	for i, v := range want.Data {
		maxErr = math.Max(maxErr, math.Abs(float64(got.Data[i]-v)))
		oracleMax = math.Max(oracleMax, math.Abs(float64(v)))
	}
	return maxErr, oracleMax
}

// outputMatches applies verifyTol to outputError.
func (c *cluster) outputMatches(x, got *tensor.Tensor) bool {
	maxErr, oracleMax := c.outputError(x, got)
	return maxErr <= verifyTol(c.w, oracleMax)
}

// imageResult is what the load generator hands back per image.
type imageResult struct {
	idx        int // position in the window; idx % inputImages is the input
	start, end time.Time
	out        *tensor.Tensor
	stats      core.InferStats
	err        error
}

func (r *imageResult) failed() bool { return r.err != nil || r.stats.TilesMissed > 0 }

// drive runs the closed loop for at least dur and at least minImages
// images: w.Depth clients, each issuing its next image only when one
// completes. With one client that is a Central.Infer loop; with more it
// is a feeder that Submits to core.Pipeline and a collector that Waits
// in submission order. Latency is submit → output returned. each is
// called once per image, in order, on the collecting goroutine.
func (c *cluster) drive(inputs []*tensor.Tensor, dur time.Duration, minImages int, each func(*imageResult)) {
	begin := time.Now()
	more := func(i int) bool { return i < minImages || time.Since(begin) < dur }
	if c.pipe == nil {
		for i := 0; more(i); i++ {
			r := imageResult{idx: i, start: time.Now()}
			r.out, r.stats, r.err = c.central.Infer(inputs[i%len(inputs)])
			r.end = time.Now()
			each(&r)
		}
		return
	}
	type handle struct {
		r imageResult
		h *core.Inflight
	}
	// One token per client. A client takes its token back only once its
	// image has been returned, and starts the next image's clock then:
	// the pipeline always has a slot free at Submit, so latency holds no
	// admission wait.
	clients := make(chan struct{}, c.w.Depth)
	handles := make(chan handle, c.w.Depth) // every client can have one image waiting for the collector
	go func() {
		defer close(handles)
		for i := 0; more(i); i++ {
			clients <- struct{}{}
			hd := handle{r: imageResult{idx: i, start: time.Now()}}
			hd.h, hd.r.err = c.pipe.Submit(context.Background(), inputs[i%len(inputs)])
			handles <- hd
		}
	}()
	for hd := range handles {
		if hd.r.err == nil {
			hd.r.out, hd.r.stats, hd.r.err = hd.h.Wait()
		}
		hd.r.end = time.Now()
		<-clients
		each(&hd.r)
	}
}

// warmUp lets pools, the scheduler's statistics and the page cache
// settle: at least 20 images and dur, not measured.
func (c *cluster) warmUp(inputs []*tensor.Tensor, dur time.Duration) error {
	var firstErr error
	c.drive(inputs, dur, 20, func(r *imageResult) {
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	})
	return firstErr
}

// window is one measured closed-loop run and the process counters
// sampled at its two ends.
type window struct {
	attempted, failed int
	begin             time.Time
	wall              time.Duration
	cpu               float64     // process CPU seconds spent
	latMs             []float64   // succeeded images, completion order
	ends              []time.Time // their completion times
	up, down          int64       // wire bytes, both directions
	mallocs           uint64
}

// measure runs one window. The collector is settled first so a cycle
// owed to set-up or warm-up is not charged to the window. keep is
// called for every image after it is counted.
func (c *cluster) measure(inputs []*tensor.Tensor, dur time.Duration, minImages int, keep func(*imageResult)) *window {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	up0, down0 := c.wireBytes()
	cpu0 := cpuSeconds()
	win := &window{begin: time.Now()}
	c.drive(inputs, dur, minImages, func(r *imageResult) {
		win.attempted++
		if r.failed() {
			win.failed++
		} else {
			win.latMs = append(win.latMs, float64(r.end.Sub(r.start))/1e6)
			win.ends = append(win.ends, r.end)
		}
		if keep != nil {
			keep(r)
		}
	})
	win.wall = time.Since(win.begin)
	win.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	win.mallocs = ms1.Mallocs - ms0.Mallocs
	up1, down1 := c.wireBytes()
	win.up, win.down = up1-up0, down1-down0
	return win
}

// Every timing metric is a whole-window figure: nothing a window saw is
// left out of it.

// imagesPerSec is images returned without error per second of the
// window's wall time.
func (w *window) imagesPerSec() float64 { return float64(len(w.latMs)) / w.wall.Seconds() }

// latencyMs is the q-quantile of submit → output returned over every
// image of the window.
func (w *window) latencyMs(q float64) float64 {
	return quantile(append([]float64(nil), w.latMs...), q)
}

// cpuPerImage is user+system CPU seconds of the whole process per image.
func (w *window) cpuPerImage() float64 { return w.cpu / float64(w.attempted) }

// windowBlocks is how many consecutive blocks of equally many images
// blockRates cuts a window into.
const windowBlocks = 10

// blockRates is images/s of each block of the window, in order. It goes
// into the result file and into no metric: on a shared host it shows
// where in the window a slow stretch fell, and how slow.
func (w *window) blockRates() []float64 {
	n := len(w.ends)
	if n < 2*windowBlocks {
		return nil
	}
	rates := make([]float64, 0, windowBlocks)
	from := w.begin
	for b := 0; b < windowBlocks; b++ {
		lo, hi := b*n/windowBlocks, (b+1)*n/windowBlocks
		rates = append(rates, float64(hi-lo)/w.ends[hi-1].Sub(from).Seconds())
		from = w.ends[hi-1]
	}
	return rates
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
