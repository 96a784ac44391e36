package experiments

import (
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
)

func TestThroughputBeatsInverseLatency(t *testing.T) {
	r, err := Throughput(30, DefaultSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.PipelineGain <= 1.0 {
			t.Errorf("%s: pipelining gain %.2f must exceed 1", row.Model, row.PipelineGain)
		}
		// Bounded admission keeps streamed latency within a small factor
		// of the isolated latency.
		if row.StreamedMs > 4*row.IsolatedMs {
			t.Errorf("%s: streamed latency %.1f grew unboundedly vs isolated %.1f",
				row.Model, row.StreamedMs, row.IsolatedMs)
		}
	}
}

// TestLivePipelinedBeatsSequential is the live-runtime counterpart of the
// simulator gain check above: on real compute, a bounded Pipeline must
// overlap the Conv nodes' fronts with the Central's dispatch and
// back-layer work. That it admits more than one image at a time is
// checked without timing: the pipelined Central's in-flight gauge must
// read 2 or more as some Submit returns (one-at-a-time admission reads
// exactly 1, since an image leaves the gauge before its admission slot
// frees). The overlap pays only with two cores; while another process
// holds one (go test runs packages side by side), a working runtime
// reads a gain of about 1.0. A gain at or below the gate is therefore a
// failure only when spareCores read at least 1.7 both before and after
// the comparison, and a skip that reports both readings when it did not.
func TestLivePipelinedBeatsSequential(t *testing.T) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	before := spareCores(t)
	seq, pipe, peak, err := livePipelineComparison(opt, 4, 400, 4, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := spareCores(t)
	gain := pipe.ThroughputIPS / seq.ThroughputIPS
	t.Logf("pipelined %.2f imgs/s vs sequential %.2f imgs/s (gain %.2fx, peak %d images in flight); spare cores %.2f before, %.2f after",
		pipe.ThroughputIPS, seq.ThroughputIPS, gain, peak, before, after)
	if peak < 2 {
		t.Fatalf("the pipelined Central never held two images in flight (peak %d)", peak)
	}
	if gain > 1.05 {
		return
	}
	if min(before, after) < 1.7 {
		t.Skipf("gain %.2fx on a host with %.2f cores to spare: overlap needs two", gain, min(before, after))
	}
	t.Fatalf("gain %.2fx with two cores to spare: pipelining must pay more than 1.05x", gain)
}

// spareCores spins GOMAXPROCS goroutines for 100ms and reports the CPU
// time the process got per unit of wall time: how many cores the host
// had to spare for it.
func spareCores(t *testing.T) float64 {
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	const spin = 100 * time.Millisecond
	c0, start := cpu(), time.Now()
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < spin {
			}
		}()
	}
	wg.Wait()
	return float64(cpu()-c0) / float64(time.Since(start))
}
