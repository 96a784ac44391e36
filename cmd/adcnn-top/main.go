// Command adcnn-top is a live terminal ops console for an ADCNN
// deployment: it polls the Central's (and optionally the Conv nodes')
// debug endpoints — /metrics, /debug/sessions, /debug/sched — and
// renders throughput, per-node speed and critical-path bars, phases, SLO
// status and the scheduler's recent decisions as an ANSI dashboard.
// Dependency free: the Prometheus text parsing lives in internal/telemetry.
//
// Usage:
//
//	adcnn-top -central 127.0.0.1:9090
//	adcnn-top -central 127.0.0.1:9090 -conv 127.0.0.1:9091,127.0.0.1:9092
//	adcnn-top -central 127.0.0.1:9090 -once          # one frame over one -interval, no ANSI
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"adcnn/internal/telemetry"
)

// scrapeSet is everything one poll gathered from one daemon.
type scrapeSet struct {
	at       time.Time
	metrics  *telemetry.PromScrape
	sessions []sessionRow
	sched    *schedPage
	err      error
}

// sessionRow mirrors core.SessionDebug's JSON.
type sessionRow struct {
	Node         int     `json:"node"`
	Alive        bool    `json:"alive"`
	Epochs       int     `json:"epochs"`
	QueueDepth   int     `json:"queue_depth"`
	PendingTiles int     `json:"pending_tiles"`
	BackoffMs    float64 `json:"reconnect_backoff_ms"`
}

// schedPage mirrors sched.Audit's /debug/sched JSON.
type schedPage struct {
	Recorded  uint64 `json:"decisions_recorded"`
	Decisions []struct {
		Seq        uint64    `json:"seq"`
		At         time.Time `json:"at"`
		Image      uint32    `json:"image"`
		Prev       []int     `json:"prev"`
		Next       []int     `json:"next"`
		ObjBefore  float64   `json:"obj_before"`
		ObjAfter   float64   `json:"obj_after"`
		TilesMoved int       `json:"tiles_moved"`
		Trigger    string    `json:"trigger"`
	} `json:"decisions"`
}

// sloRow is one objective's judgment, reconstructed from the gauges.
type sloRow struct {
	name     string
	state    int
	fastBurn float64
	slowBurn float64
}

func main() {
	central := flag.String("central", "127.0.0.1:9090", "Central metrics address (host:port)")
	convList := flag.String("conv", "", "comma-separated Conv metrics addresses")
	interval := flag.Duration("interval", time.Second, "poll interval")
	once := flag.Bool("once", false, "render one frame over one -interval and exit (no screen control)")
	noColor := flag.Bool("no-color", false, "disable ANSI colors")
	flag.Parse()

	var convs []string
	for _, a := range strings.Split(*convList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			convs = append(convs, a)
		}
	}
	cl := &http.Client{Timeout: 2 * time.Second}
	d := &dash{color: !*noColor, central: *central, convs: convs, client: cl}

	if *once {
		fmt.Print(d.renderOnce(*interval))
		return
	}
	// Alternate screen, cursor hidden; restore on exit.
	fmt.Print("\x1b[?1049h\x1b[?25l")
	defer fmt.Print("\x1b[?25h\x1b[?1049l")
	d.prev = d.poll(*central)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for range tick.C {
		frame := d.render()
		fmt.Print("\x1b[H\x1b[2J" + frame)
	}
}

// dash holds poll state: rates need the previous scrape.
type dash struct {
	color   bool
	central string
	convs   []string
	client  *http.Client
	prev    *scrapeSet
}

// fetch GETs one URL with the shared client.
func (d *dash) fetch(addr, path string) ([]byte, error) {
	resp, err := d.client.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(io.LimitReader(resp.Body, 4<<20))
}

// poll gathers one scrape set from the Central.
func (d *dash) poll(addr string) *scrapeSet {
	s := &scrapeSet{at: time.Now()}
	raw, err := d.fetch(addr, "/metrics")
	if err != nil {
		s.err = err
		return s
	}
	s.metrics, s.err = telemetry.ParsePrometheus(strings.NewReader(string(raw)))
	if body, err := d.fetch(addr, "/debug/sessions"); err == nil {
		// One entry per Conv node.
		var rows []sessionRow
		if json.Unmarshal(body, &rows) == nil {
			s.sessions = rows
		}
	}
	if body, err := d.fetch(addr, "/debug/sched"); err == nil {
		var page schedPage
		if json.Unmarshal(body, &page) == nil {
			s.sched = &page
		}
	}
	return s
}

// renderOnce draws one frame whose rates, quantiles and crit shares
// cover one interval: a baseline poll, the wait, then the frame's poll.
func (d *dash) renderOnce(interval time.Duration) string {
	d.prev = d.poll(d.central)
	time.Sleep(interval)
	return d.render()
}

// render polls and draws one frame, updating the rate baseline.
func (d *dash) render() string {
	cur := d.poll(d.central)
	prev := d.prev
	d.prev = cur

	var b strings.Builder
	fmt.Fprintf(&b, "%s  central=%s  %s",
		d.bold("adcnn-top"), d.central, cur.at.Format("15:04:05"))
	if cur.err == nil {
		if bi := buildLine(cur.metrics); bi != "" {
			fmt.Fprintf(&b, "  %s", bi)
		}
	}
	b.WriteString("\n")
	if cur.err != nil {
		fmt.Fprintf(&b, "\n  %s %v\n", d.red("scrape failed:"), cur.err)
		return b.String()
	}
	m := cur.metrics

	// ---- throughput line: deltas against the previous poll.
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		dt = 1
	}
	imgRate := d.rate(m, prev.metrics, "adcnn_central_images_total", dt)
	missRate := d.rate(m, prev.metrics, "adcnn_central_tiles_missed_total", dt)
	inflight, _ := sumName(m, "adcnn_central_inflight_images")
	fmt.Fprintf(&b, "\n  images %6.1f/s   inflight %2.0f   zero-fill %5.2f/s",
		imgRate, inflight, missRate)

	// Tile round-trip quantiles from the bucket delta between polls
	// (falls back to since-start when the delta is empty).
	upper, cum := m.Buckets("adcnn_central_tile_roundtrip_seconds")
	if prev.metrics != nil {
		pu, pc := prev.metrics.Buckets("adcnn_central_tile_roundtrip_seconds")
		if len(pu) == len(upper) {
			if delta := telemetry.DeltaBuckets(cum, pc); len(delta) > 0 && delta[len(delta)-1] > 0 {
				cum = delta
			}
		}
	}
	if len(cum) > 0 && cum[len(cum)-1] > 0 {
		fmt.Fprintf(&b, "   tile p50/p95/p99 %s/%s/%s",
			fmtSec(telemetry.QuantileFromBuckets(upper, cum, 0.50)),
			fmtSec(telemetry.QuantileFromBuckets(upper, cum, 0.95)),
			fmtSec(telemetry.QuantileFromBuckets(upper, cum, 0.99)))
	}
	b.WriteString("\n")

	// ---- SLO status.
	if rows := sloRows(m); len(rows) > 0 {
		fmt.Fprintf(&b, "\n  %s\n", d.bold("SLO"))
		for _, r := range rows {
			state := d.green("ok")
			switch r.state {
			case 1:
				state = d.yellow("warn")
			case 2:
				state = d.red("BREACH")
			}
			fmt.Fprintf(&b, "   %-18s %-14s burn fast %5.1f  slow %5.1f\n",
				r.name, state, r.fastBurn, r.slowBurn)
		}
	}

	// ---- per-node table.
	nodes := m.LabelValues("adcnn_sched_speed", "node")
	if len(nodes) > 0 {
		fmt.Fprintf(&b, "\n  %s\n", d.bold("nodes"))
		fmt.Fprintf(&b, "   %-4s %-7s %-22s %-5s  %-20s %-14s %-6s %-8s %s\n",
			"node", "s_k", "", "crit", "", "", "queue", "rtt", "state")
		maxSpeed := 0.0
		for _, n := range nodes {
			if v, ok := m.Value("adcnn_sched_speed", "node", n); ok && v > maxSpeed {
				maxSpeed = v
			}
		}
		sessions := map[int]sessionRow{}
		for _, r := range cur.sessions {
			sessions[r.Node] = r
		}
		// crit: the node's share of the interval's images whose last tile
		// it ran, beside the phase that most often put it there.
		const crit = "adcnn_central_critical_path_total"
		critPhases := m.LabelValues(crit, "phase")
		for _, n := range nodes {
			speed, _ := m.Value("adcnn_sched_speed", "node", n)
			queue, _ := m.Value("adcnn_central_send_queue_depth", "node", n)
			rtt := "-"
			if v, _ := m.Value("adcnn_central_link_rtt_seconds", "node", n); v > 0 {
				rtt = fmtSec(v)
			}
			share, phase := 0.0, "-"
			if imgRate > 0 {
				share = d.rate(m, prev.metrics, crit, dt, "node", n) / imgRate
				top := 0.0
				for _, p := range critPhases {
					if v := d.rate(m, prev.metrics, crit, dt, "node", n, "phase", p); v > top {
						top, phase = v, p
					}
				}
			}
			state := d.green("alive")
			k, _ := strconv.Atoi(n)
			if row, ok := sessions[k]; ok && !row.Alive {
				state = d.red(fmt.Sprintf("down (backoff %.0fms)", row.BackoffMs))
			} else if ok && row.Epochs > 1 {
				state = d.yellow(fmt.Sprintf("alive (epoch %d)", row.Epochs))
			}
			fmt.Fprintf(&b, "   %-4s %-7.2f %-22s %4.0f%%  %-20s %-14s %-6.0f %-8s %s\n",
				n, speed, d.bar(speed, maxSpeed, 20), 100*share,
				d.bar(share, 1, 18), phase, queue, rtt, state)
		}
	}

	// ---- phase decomposition (mean seconds per phase since last poll).
	if line := d.phaseLine(m, prev.metrics); line != "" {
		fmt.Fprintf(&b, "\n  %s\n   %s\n", d.bold("tile phases (mean, last interval)"), line)
	}

	// ---- recent scheduler decisions.
	if cur.sched != nil && len(cur.sched.Decisions) > 0 {
		fmt.Fprintf(&b, "\n  %s (%d total)\n", d.bold("scheduler decisions"), cur.sched.Recorded)
		ds := cur.sched.Decisions
		if len(ds) > 5 {
			ds = ds[len(ds)-5:]
		}
		for _, dec := range ds {
			fmt.Fprintf(&b, "   #%-4d img %-5d %v -> %v  moved %d  obj %.2f->%.2f  %s\n",
				dec.Seq, dec.Image, dec.Prev, dec.Next, dec.TilesMoved,
				dec.ObjBefore, dec.ObjAfter, dec.Trigger)
		}
	}

	// ---- conv daemons.
	for _, addr := range d.convs {
		raw, err := d.fetch(addr, "/metrics")
		if err != nil {
			fmt.Fprintf(&b, "\n  %s %s: %v\n", d.bold("conv"), addr, d.red(err.Error()))
			continue
		}
		wm, err := telemetry.ParsePrometheus(strings.NewReader(string(raw)))
		if err != nil {
			continue
		}
		tasks := 0.0
		for _, n := range wm.LabelValues("adcnn_worker_tasks_total", "node") {
			v, _ := wm.Value("adcnn_worker_tasks_total", "node", n)
			tasks += v
		}
		line := fmt.Sprintf("tasks %d", int(tasks))
		if u, c := wm.Buckets("adcnn_worker_process_seconds"); len(c) > 0 && c[len(c)-1] > 0 {
			line += fmt.Sprintf("   process p50 %s p99 %s",
				fmtSec(telemetry.QuantileFromBuckets(u, c, 0.50)),
				fmtSec(telemetry.QuantileFromBuckets(u, c, 0.99)))
		}
		fmt.Fprintf(&b, "\n  %s %s: %s\n", d.bold("conv"), addr, line)
	}
	return b.String()
}

// rate computes a counter's per-second delta between two scrapes,
// summed over the family's samples whose labels include the given
// key=value pairs.
func (d *dash) rate(cur, prev *telemetry.PromScrape, name string, dt float64, labels ...string) float64 {
	cv, ok := sumName(cur, name, labels...)
	if !ok || prev == nil {
		return 0
	}
	pv, _ := sumName(prev, name, labels...)
	if cv < pv {
		return 0
	}
	return (cv - pv) / dt
}

// sumName sums every sample of a family whose labels include the given
// key=value pairs, whatever its other labels.
func sumName(s *telemetry.PromScrape, name string, labels ...string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	var v float64
	found := false
	for _, smp := range s.Samples {
		if smp.Name != name {
			continue
		}
		match := true
		for j := 0; j+1 < len(labels); j += 2 {
			match = match && smp.Labels[labels[j]] == labels[j+1]
		}
		if match {
			v += smp.Value
			found = true
		}
	}
	return v, found
}

// phaseLine renders mean per-phase time from the histogram sum/count
// deltas of adcnn_central_tile_phase_seconds.
func (d *dash) phaseLine(cur, prev *telemetry.PromScrape) string {
	var parts []string
	for _, phase := range cur.LabelValues("adcnn_central_tile_phase_seconds_count", "phase") {
		cc, _ := sumName(cur, "adcnn_central_tile_phase_seconds_count", "phase", phase)
		cs, _ := sumName(cur, "adcnn_central_tile_phase_seconds_sum", "phase", phase)
		if prev != nil {
			pc, _ := sumName(prev, "adcnn_central_tile_phase_seconds_count", "phase", phase)
			ps, _ := sumName(prev, "adcnn_central_tile_phase_seconds_sum", "phase", phase)
			if cc >= pc {
				cc -= pc
				cs -= ps
			}
		}
		if cc > 0 {
			parts = append(parts, fmt.Sprintf("%s=%s", phase, fmtSec(cs/cc)))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "  ")
}

// sloRows reconstructs objective judgments from the exported gauges.
func sloRows(m *telemetry.PromScrape) []sloRow {
	var out []sloRow
	for _, name := range m.LabelValues("adcnn_slo_state", "objective") {
		st, _ := m.Value("adcnn_slo_state", "objective", name)
		fast, _ := m.Value("adcnn_slo_burn", "objective", name, "window", "fast")
		slow, _ := m.Value("adcnn_slo_burn", "objective", name, "window", "slow")
		out = append(out, sloRow{name: name, state: int(st), fastBurn: fast, slowBurn: slow})
	}
	return out
}

// bar renders v/hi as a fixed-width block bar.
func (d *dash) bar(v, hi float64, width int) string {
	if hi <= 0 || v < 0 {
		v, hi = 0, 1
	}
	n := int(v / hi * float64(width))
	if n > width {
		n = width
	}
	return "[" + strings.Repeat("|", n) + strings.Repeat(" ", width-n) + "]"
}

// buildLine summarizes every scraped adcnn_build_info sample, so the
// header names the build (revision, Go version, kernel tier) of each
// component sharing the Central's registry.
func buildLine(m *telemetry.PromScrape) string {
	if m == nil {
		return ""
	}
	var parts []string
	for _, smp := range m.Samples {
		if smp.Name != "adcnn_build_info" || smp.Labels == nil {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %s go=%s simd=%s",
			smp.Labels["component"], smp.Labels["revision"],
			smp.Labels["go_version"], smp.Labels["kernel_tier"]))
	}
	sort.Strings(parts)
	return strings.Join(parts, "  ")
}

// fmtSec renders seconds human-readably (µs/ms/s).
func fmtSec(s float64) string {
	switch {
	case math.IsNaN(s):
		return "-"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

// ANSI helpers; plain strings when color is off or stdout is not a TTY.
func (d *dash) wrap(code, s string) string {
	if !d.color {
		return s
	}
	return "\x1b[" + code + "m" + s + "\x1b[0m"
}
func (d *dash) bold(s string) string   { return d.wrap("1", s) }
func (d *dash) red(s string) string    { return d.wrap("31", s) }
func (d *dash) green(s string) string  { return d.wrap("32", s) }
func (d *dash) yellow(s string) string { return d.wrap("33", s) }
