package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestTraceExportRoundTrip writes a trace with every event flavour and
// validates the JSON against the Chrome trace-event schema on the way
// back in: known fields only (DisallowUnknownFields), legal phase codes,
// microsecond timestamps, and span durations.
func TestTraceExportRoundTrip(t *testing.T) {
	tr := NewTrace()
	tr.SetThreadName(0, "central")
	tr.SetThreadName(1, "conv-0")
	tr.Span("image 1", "image", 0, 0, 250*time.Millisecond, map[string]any{"missed": 0})
	tr.Span("tile 3", "tile", 1, 10*time.Millisecond, 40*time.Millisecond, nil)
	tr.Instant("zero-fill", "central", 0, 200*time.Millisecond, map[string]any{"missed": 2})
	sp := tr.Begin("back", "compute", 0)
	sp.End(nil)

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatal("trace file is not valid JSON")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := ReadTraceFile(f)
	if err != nil {
		t.Fatalf("schema violation: %v", err)
	}
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6", len(evs))
	}
	spans, instants, meta := 0, 0, 0
	for _, ev := range evs {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur < 0 {
				t.Fatalf("span %q has negative duration", ev.Name)
			}
		case "i":
			instants++
			if ev.Scope != "t" {
				t.Fatalf("instant %q missing scope", ev.Name)
			}
		case "M":
			meta++
		default:
			t.Fatalf("illegal phase %q", ev.Ph)
		}
		if ev.Name == "" || ev.PID != 1 || ev.TS < 0 {
			t.Fatalf("malformed event %+v", ev)
		}
	}
	if spans != 3 || instants != 1 || meta != 2 {
		t.Fatalf("event mix spans=%d instants=%d meta=%d", spans, instants, meta)
	}
	// Virtual-time offsets must survive the µs conversion exactly.
	for _, ev := range evs {
		if ev.Name == "tile 3" && (ev.TS != 10000 || ev.Dur != 40000) {
			t.Fatalf("tile span ts/dur = %v/%v, want 10000/40000", ev.TS, ev.Dur)
		}
	}
}

// TestNilTraceIsInert proves instrumentation sites need no guards.
func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	tr.Span("x", "", 0, 0, time.Second, nil)
	tr.Instant("y", "", 0, 0, nil)
	tr.SetThreadName(0, "z")
	tr.Begin("w", "", 0).End(nil)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil trace must record nothing")
	}
	if err := tr.WriteJSON(&failWriter{}); err != nil {
		t.Fatal("nil trace WriteJSON must be a no-op")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, os.ErrClosed }

// TestHTTPEndpoints exercises the /metrics, /healthz and pprof handlers.
func TestHTTPEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "Requests.").Inc()
	srv := httptest.NewServer(MuxChecks(reg, nil, nil))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		_, _ = b.ReadFrom(resp.Body)
		return resp.StatusCode, b.String()
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "up_total 1") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d", code)
	}
}
