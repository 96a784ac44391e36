package experiments

import (
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
// simulator gain check above: with each Conv node's simulated device
// holding a tile for a fixed service time, a bounded Pipeline must
// overlap that hold with the Central's dispatch and back-layer work.
func TestLivePipelinedBeatsSequential(t *testing.T) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	seq, pipe, err := livePipelineComparison(opt, 4, 24, 4, 3, 4*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	gain := pipe.ThroughputIPS / seq.ThroughputIPS
	if gain <= 1.05 {
		t.Fatalf("pipelined %.2f imgs/s vs sequential %.2f imgs/s (gain %.2fx): pipelining must pay",
			pipe.ThroughputIPS, seq.ThroughputIPS, gain)
	}
}
