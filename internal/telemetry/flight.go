package telemetry

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// FlightEvent is one structured entry in the flight recorder: a compact
// record of something rare that happened to a tile, an image, or a
// session — a reallocation, a missed deadline, a stale result, a
// session transition. AtNs is nanoseconds since the recorder's epoch.
// Tile and Node are −1 when not applicable; a session-scoped event has
// image 0.
type FlightEvent struct {
	AtNs   int64  `json:"at_ns"`
	Kind   string `json:"kind"`
	Image  uint32 `json:"image"`
	Tile   int    `json:"tile"`
	Node   int    `json:"node"`
	Detail string `json:"detail,omitempty"`
}

// FlightDump is a triggered snapshot: the recent events relevant to one
// image, captured the moment something went wrong (a missed T_L
// deadline, a session failover).
type FlightDump struct {
	Reason string        `json:"reason"`
	Image  uint32        `json:"image"`
	At     time.Time     `json:"at"`
	Events []FlightEvent `json:"events"`
}

// FlightRecorder is a fixed-size ring buffer of FlightEvents plus a
// bounded list of triggered dumps. It is fed rare events only, so a
// healthy run's ring spans a long history. Recording is a
// mutex-guarded struct copy, and all methods are no-ops on a nil
// receiver, matching the rest of the telemetry layer.
type FlightRecorder struct {
	mu       sync.Mutex
	epoch    time.Time
	buf      []FlightEvent
	next     int
	wrapped  bool
	recorded int64
	dumps    []FlightDump
}

// DefaultFlightSize is the ring capacity used when size ≤ 0.
const DefaultFlightSize = 1024

// maxFlightDumps bounds the retained dump list; older dumps fall off.
const maxFlightDumps = 32

// NewFlightRecorder creates a recorder holding the last size events.
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	return &FlightRecorder{epoch: time.Now(), buf: make([]FlightEvent, size)}
}

// Record appends one event to the ring. tile/node may be −1.
func (f *FlightRecorder) Record(kind string, image uint32, tile, node int, detail string) {
	if f == nil {
		return
	}
	ev := FlightEvent{
		AtNs: int64(time.Since(f.epoch)), Kind: kind,
		Image: image, Tile: tile, Node: node, Detail: detail,
	}
	f.mu.Lock()
	f.buf[f.next] = ev
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.wrapped = true
	}
	f.recorded++
	f.mu.Unlock()
}

// eventsLocked returns the ring contents oldest-first. Caller holds mu.
func (f *FlightRecorder) eventsLocked() []FlightEvent {
	if !f.wrapped {
		return append([]FlightEvent(nil), f.buf[:f.next]...)
	}
	out := make([]FlightEvent, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	return append(out, f.buf[:f.next]...)
}

// Events returns a copy of the ring contents, oldest first.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eventsLocked()
}

// Dump snapshots the events relevant to image — its own events plus
// session-scoped ones (image 0) — into the retained dump list and
// returns the dump. Called when a tile misses T_L or a session fails
// over mid-image.
func (f *FlightRecorder) Dump(reason string, image uint32) FlightDump {
	if f == nil {
		return FlightDump{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d := FlightDump{Reason: reason, Image: image, At: time.Now()}
	for _, ev := range f.eventsLocked() {
		if ev.Image == image || ev.Image == 0 {
			d.Events = append(d.Events, ev)
		}
	}
	f.dumps = append(f.dumps, d)
	if len(f.dumps) > maxFlightDumps {
		f.dumps = f.dumps[len(f.dumps)-maxFlightDumps:]
	}
	return d
}

// DumpAll snapshots the entire ring into the retained dump list —
// for triggers that are not scoped to one image, like an SLO breach,
// where the events leading up to the transition may span many images
// and sessions. Image is 0 in the resulting dump.
func (f *FlightRecorder) DumpAll(reason string) FlightDump {
	if f == nil {
		return FlightDump{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d := FlightDump{Reason: reason, At: time.Now(), Events: f.eventsLocked()}
	f.dumps = append(f.dumps, d)
	if len(f.dumps) > maxFlightDumps {
		f.dumps = f.dumps[len(f.dumps)-maxFlightDumps:]
	}
	return d
}

// Dumps returns a copy of the retained dumps, oldest first.
func (f *FlightRecorder) Dumps() []FlightDump {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]FlightDump(nil), f.dumps...)
}

// flightPage is the /debug/flight JSON shape.
type flightPage struct {
	Epoch    time.Time     `json:"epoch"`
	Recorded int64         `json:"events_recorded"`
	Capacity int           `json:"capacity"`
	Dumps    []FlightDump  `json:"dumps"`
	Recent   []FlightEvent `json:"recent"`
}

// ServeHTTP renders the recorder as JSON: the triggered dumps first
// (that's what an operator debugging a deadline miss wants), then the
// raw recent ring.
func (f *FlightRecorder) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if f == nil {
		_, _ = w.Write([]byte("{}\n"))
		return
	}
	f.mu.Lock()
	page := flightPage{
		Epoch:    f.epoch,
		Recorded: f.recorded,
		Capacity: len(f.buf),
		Dumps:    append([]FlightDump(nil), f.dumps...),
		Recent:   f.eventsLocked(),
	}
	f.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(page)
}
