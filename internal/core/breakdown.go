package core

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// The per-tile phase taxonomy. Every tile's end-to-end latency is
// decomposed into six consecutive phases of its journey (paper Figs.
// 8/11 separate transfer from compute; this is the runtime's finer
// rendering of that split):
//
//	dispatch_queue  enqueue on the Central → frame handed to the socket
//	uplink          frame on the wire → task read by the Conv node
//	node_queue      task read → compute begins (decode + device queue wait)
//	compute         Front+Boundary forward + result encode on the node
//	downlink        result frame written → read back by the Central
//	collect         result decoded → popped by the image's collector
//
// The Conv-internal phases come straight from the ConvTiming record
// (differences of same-clock timestamps, so no offset error); the
// uplink/downlink split of the network time uses the session's clock
// offset estimate, clamped so the six phases always sum to the
// measured end-to-end tile latency exactly.
const (
	PhaseDispatchQueue = iota
	PhaseUplink
	PhaseNodeQueue
	PhaseCompute
	PhaseDownlink
	PhaseCollect
	NumPhases
)

// PhaseNames maps phase indices to their metric label values.
var PhaseNames = [NumPhases]string{
	"dispatch_queue", "uplink", "node_queue", "compute", "downlink", "collect",
}

// monoEpoch anchors the process-wide monotonic clock used on the wire:
// both sides timestamp with nanoseconds since their own process start,
// and the Central's offset estimator maps a Conv node's readings onto
// the Central's epoch.
var monoEpoch = time.Now()

// monoNow returns monotonic nanoseconds since the process epoch.
func monoNow() int64 { return int64(time.Since(monoEpoch)) }

// monoWall converts a monotonic reading (this process's clock) back to
// a wall instant, for trace offsets.
func monoWall(ns int64) time.Time { return monoEpoch.Add(time.Duration(ns)) }

// TileBreakdown is one tile's reconstructed timeline.
type TileBreakdown struct {
	Tile  int
	Node  int
	Total time.Duration // enqueue → collected (sum of Phase)
	Phase [NumPhases]time.Duration
	// Conv is the raw Conv-side timing record (that node's clock) and
	// OffsetNs the estimated offset that maps it onto the Central's
	// clock (add to Conv timestamps). Nil/zero when the worker sent no
	// timing record — then only dispatch-queue and a merged remainder
	// are attributable and Phase holds the coarse split.
	Conv     *ConvTiming
	OffsetNs int64
}

// Breakdown is one image's per-tile latency decomposition, surfaced on
// InferStats. Tiles appear in arrival order; tiles that missed the
// deadline are absent.
type Breakdown struct {
	Image   uint32
	TraceID uint64
	Tiles   []TileBreakdown
}

// newTileBreakdown reconstructs one tile's phase timeline from the
// Central-side timestamps (central mono ns) and the Conv timing record.
func newTileBreakdown(tile, node int, enqNs, sentNs, recvNs, collectNs int64, tm *ConvTiming, offsetNs int64) TileBreakdown {
	b := TileBreakdown{
		Tile: tile, Node: node,
		Total: time.Duration(collectNs - enqNs),
		Conv:  tm, OffsetNs: offsetNs,
	}
	if sentNs < enqNs { // never marked sent (shouldn't happen); fold into dispatch
		sentNs = enqNs
	}
	b.Phase[PhaseDispatchQueue] = time.Duration(sentNs - enqNs)
	b.Phase[PhaseCollect] = time.Duration(collectNs - recvNs)
	if tm == nil {
		// No Conv-side record: everything between send and receive is one
		// opaque blob; call it compute so the sum still closes.
		b.Phase[PhaseCompute] = time.Duration(recvNs - sentNs)
		return b
	}
	// Conv-internal phases are same-clock differences — offset-free.
	nodeQueue := tm.ComputeStartNs - tm.RecvNs
	computeT := tm.SendNs - tm.ComputeStartNs
	if nodeQueue < 0 {
		nodeQueue = 0
	}
	if computeT < 0 {
		computeT = 0
	}
	// The total network time is also offset-free: round trip minus the
	// tile's stay on the node. Only its uplink/downlink split needs the
	// offset estimate, so clock error can never un-balance the sum.
	network := (recvNs - sentNs) - (tm.SendNs - tm.RecvNs)
	if network < 0 {
		network = 0
	}
	uplink := (tm.RecvNs + offsetNs) - sentNs
	if uplink < 0 {
		uplink = 0
	}
	if uplink > network {
		uplink = network
	}
	b.Phase[PhaseNodeQueue] = time.Duration(nodeQueue)
	b.Phase[PhaseCompute] = time.Duration(computeT)
	b.Phase[PhaseUplink] = time.Duration(uplink)
	b.Phase[PhaseDownlink] = time.Duration(network - uplink)
	return b
}

// PhaseSum returns the sum of the six phases (equals Total up to
// clamping of negative clock artifacts).
func (t *TileBreakdown) PhaseSum() time.Duration {
	var s time.Duration
	for _, p := range t.Phase {
		s += p
	}
	return s
}

// MeanPhases averages each phase over the image's collected tiles.
func (b *Breakdown) MeanPhases() [NumPhases]time.Duration {
	var out [NumPhases]time.Duration
	if b == nil || len(b.Tiles) == 0 {
		return out
	}
	for _, t := range b.Tiles {
		for p := range t.Phase {
			out[p] += t.Phase[p]
		}
	}
	for p := range out {
		out[p] /= time.Duration(len(b.Tiles))
	}
	return out
}

// MeanTotal averages the end-to-end tile latency over collected tiles.
func (b *Breakdown) MeanTotal() time.Duration {
	if b == nil || len(b.Tiles) == 0 {
		return 0
	}
	var s time.Duration
	for _, t := range b.Tiles {
		s += t.Total
	}
	return s / time.Duration(len(b.Tiles))
}

// blamePhases are the phases Critical weighs: the three where a slow
// node shows. The other three are dominated by the Central's own load.
var blamePhases = [3]int{PhaseCompute, PhaseUplink, PhaseNodeQueue}

// Critical says why the image took as long as it did. node ran the last
// tile, which set the image's latency. phase is the one of blamePhases
// in which that tile most exceeds the median (the upper one for an even
// count, 0 for none) of the same phase over the image's tiles on other
// nodes, and excess is by how much, so a shift on every node blames no
// one. phase is -1 and excess 0 when no phase is above its peers'
// median; node is -1 too when there is no tile.
func (b *Breakdown) Critical() (node, phase int, excess time.Duration) {
	if b == nil || len(b.Tiles) == 0 {
		return -1, -1, 0
	}
	last := &b.Tiles[len(b.Tiles)-1]
	node, phase = last.Node, -1
	peers := make([]time.Duration, 0, 64) // up to an 8×8 grid on the stack
	for _, p := range blamePhases {
		peers = peers[:0]
		for i := range b.Tiles {
			if b.Tiles[i].Node != node {
				peers = append(peers, b.Tiles[i].Phase[p])
			}
		}
		var median time.Duration
		if len(peers) > 0 {
			slices.Sort(peers)
			median = peers[len(peers)/2]
		}
		if d := last.Phase[p] - median; d > excess {
			phase, excess = p, d
		}
	}
	return node, phase, excess
}

// WriteText renders the mean per-phase decomposition as one line, e.g.
// for the central daemon's -breakdown mode.
func (b *Breakdown) WriteText(w io.Writer) {
	if b == nil || len(b.Tiles) == 0 {
		fmt.Fprintln(w, "  breakdown: no tiles collected")
		return
	}
	mean := b.MeanPhases()
	fmt.Fprintf(w, "  breakdown (mean over %d tiles):", len(b.Tiles))
	for p := 0; p < NumPhases; p++ {
		fmt.Fprintf(w, " %s=%v", PhaseNames[p], mean[p].Round(time.Microsecond))
	}
	fmt.Fprintf(w, " total=%v\n", b.MeanTotal().Round(time.Microsecond))
}
