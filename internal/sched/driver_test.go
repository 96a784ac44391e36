package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// schedule is one seeded run of the Driver against a model cluster the
// test mutates: nodes die and rejoin, stall (alive but returning
// nothing, so Algorithm 2 starves them). The clock is a variable.
type schedule struct {
	t     *testing.T
	rng   *rand.Rand
	d     *Driver
	tiles int
	now   time.Time

	last Allocation // the previous successful plan's split

	alive   []bool
	stalled []bool
	revived []time.Time // last probation revival per node, zero = never
}

func newSchedule(t *testing.T, seed int64) *schedule {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(5)
	s := &schedule{
		t: t, rng: rng, tiles: 4 + rng.Intn(29), now: time.Unix(1000, 0),
		alive: make([]bool, n), stalled: make([]bool, n), revived: make([]time.Time, n),
	}
	for k := range s.alive {
		s.alive[k] = true
	}
	s.d = NewDriver(n, []float64{0.5, 0.9}[rng.Intn(2)], float64(s.tiles)/float64(n))
	return s
}

// mutate applies one random fault or repair.
func (s *schedule) mutate() {
	k := s.rng.Intn(len(s.alive))
	switch s.rng.Intn(9) {
	case 0:
		s.alive[k] = false
	case 1:
		if !s.alive[k] {
			s.alive[k] = true
			if s.rng.Intn(2) == 0 { // a reconnect revives; a silent return leaves it to probation
				s.d.Revive(k)
			}
		}
	case 2:
		s.stalled[k] = true
	case 3:
		s.stalled[k] = false
	}
}

// step plans and settles one image, checking every policy invariant.
func (s *schedule) step(image uint32) {
	t := s.t
	s.now = s.now.Add(time.Duration(10+s.rng.Intn(1500)) * time.Millisecond)
	raw := s.d.Speeds()
	best, anyAlive := 0.0, false
	for k, up := range s.alive {
		if up {
			anyAlive = true
			best = max(best, raw[k])
		}
	}
	p, err := s.d.Plan(s.now, s.tiles, s.alive, 0, nil)
	if !anyAlive {
		if err == nil {
			t.Fatalf("image %d: plan succeeded with no alive node: %v", image, p.Alloc)
		}
		return
	}
	if err != nil {
		t.Fatalf("image %d: %v", image, err)
	}

	// Probation: exactly the alive nodes starved below 2% of the best
	// alive estimate are revived, unless revived within the interval.
	for k, up := range s.alive {
		starved := up && raw[k] < probationFrac*best
		since := s.now.Sub(s.revived[k])
		switch wasRevived := slices.Contains(p.Revived, k); {
		case wasRevived && !starved:
			t.Fatalf("image %d: node %d revived at speed %g (best %g, alive %v)", image, k, raw[k], best, up)
		case wasRevived && since < probationInterval:
			t.Fatalf("image %d: node %d revived twice within %v", image, k, since)
		case wasRevived:
			s.revived[k] = s.now
		case starved && since >= probationInterval:
			t.Fatalf("image %d: node %d starved and not revived for %v", image, k, since)
		}
	}

	// The speeds are the (post-revival) estimates, zero for the dead.
	want := s.d.Speeds()
	for k := range want {
		if !s.alive[k] {
			want[k] = 0
		}
	}
	if !slices.Equal(p.Speeds, want) {
		t.Fatalf("image %d: plan speeds %v, want %v", image, p.Speeds, want)
	}
	if p.Alloc.Total() != s.tiles {
		t.Fatalf("image %d: allocated %d of %d tiles: %v", image, p.Alloc.Total(), s.tiles, p.Alloc)
	}
	for k, x := range p.Alloc {
		if x > 0 && !s.alive[k] {
			t.Fatalf("image %d: dead node %d got %d tiles", image, k, x)
		}
	}
	if plain, _ := Allocate(s.tiles, want, 0, nil, nil); !slices.Equal(p.Alloc, plain) {
		t.Fatalf("image %d: plan %v differs from Allocate %v on %v", image, p.Alloc, plain, want)
	}

	// Reallocation report: a Trigger exactly on a plan that changed the
	// split (or is the first), whose Prev is the split it replaced and
	// whose Realloc line names both; none on a repeat.
	changed := s.last == nil || !slices.Equal(s.last, p.Alloc)
	if changed != (p.Trigger != "") {
		t.Fatalf("image %d: trigger %q on split %v after %v", image, p.Trigger, p.Alloc, s.last)
	}
	if (changed && !slices.Equal(p.Prev, s.last)) || (!changed && p.Prev != nil) {
		t.Fatalf("image %d: plan %v reports prev %v, replaced %v", image, p.Alloc, p.Prev, s.last)
	}
	if _, detail := p.Realloc(); changed && !strings.Contains(detail, fmt.Sprintf("%v → %v,", p.Prev, p.Alloc)) {
		t.Fatalf("image %d: realloc %q does not name %v → %v", image, detail, p.Prev, p.Alloc)
	}
	s.last = p.Alloc

	// A fault may land between an image's plan and its settle.
	if s.rng.Intn(20) == 0 {
		s.mutate()
	}
	received := make([]int, len(p.Alloc))
	for k, x := range p.Alloc {
		switch {
		case s.stalled[k] || !s.alive[k]:
		case s.rng.Intn(4) == 0:
			received[k] = s.rng.Intn(x + 1)
		default:
			received[k] = x
		}
	}
	s.d.Settle(received)
}

// TestDriverPolicyProperties drives the whole policy through seeded
// random schedules on a virtual clock — no sockets, no sleeps.
func TestDriverPolicyProperties(t *testing.T) {
	for seed := int64(0); seed < driverSchedules; seed++ {
		s := newSchedule(t, seed)
		for image := uint32(1); image <= 60; image++ {
			if s.rng.Intn(3) == 0 {
				s.mutate()
			}
			s.step(image)
		}
	}
}

// TestDriverPlanNeedsOneViewPerNode: the node set is fixed at
// construction, so a plan over more or fewer liveness flags is a
// caller bug.
func TestDriverPlanNeedsOneViewPerNode(t *testing.T) {
	d := NewDriver(2, 0.9, 4)
	for _, alive := range [][]bool{{true}, {true, true, true}} {
		if _, err := d.Plan(time.Unix(0, 0), 4, alive, 0, nil); err == nil {
			t.Fatalf("plan over %d liveness flags for 2 nodes succeeded", len(alive))
		}
	}
}

// TestDriverConcurrentUse: plans, settles, revivals and reads from
// many goroutines (the pipelined Central's access pattern), for the race
// detector.
func TestDriverConcurrentUse(t *testing.T) {
	d := NewDriver(3, 0.9, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			alive := []bool{true, g%2 == 0, true}
			for i := 0; i < 200; i++ {
				p, err := d.Plan(time.Unix(int64(i), 0), 12, alive, 0, nil)
				if err != nil {
					t.Error(err)
					return
				}
				d.Settle(p.Alloc)
				d.Revive(1)
				_ = d.Speeds()
			}
		}(g)
	}
	wg.Wait()
}

// TestPlanReportsReallocation drives a Driver through a first plan, a
// repeat and a reallocation, and reads what each plan reports.
func TestPlanReportsReallocation(t *testing.T) {
	// γ = 1 makes each s_k the last image's n_k, so the test sets the
	// speeds outright.
	d := NewDriver(2, 1, 4)
	both := []bool{true, true}
	plan := func() Plan {
		t.Helper()
		p, err := d.Plan(time.Unix(1000, 0), 12, both, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// First allocation: "initial", no predecessor.
	first := plan()
	node, detail := first.Realloc()
	if first.Trigger != "initial" || first.Prev != nil || node != -1 ||
		detail != "initial: [] → [6 6], 0 tiles moved, bottleneck 1.5 → 1.5" {
		t.Fatalf("initial plan %+v reports node %d %q", first, node, detail)
	}
	// Identical split: a steady state, nothing to report.
	d.Settle([]int{4, 4})
	if p := plan(); p.Trigger != "" || p.Prev != nil {
		t.Fatalf("repeat plan reports %q after %v", p.Trigger, p.Prev)
	}
	// Node 1 slowed to half speed, the split shifts 2 tiles off it.
	// Old split {6,6} under new speeds {4,2}: bottleneck 6/2 = 3; new
	// split {8,4}: 8/4 = 4/2 = 2. The line shows the move's payoff.
	d.Settle([]int{4, 2})
	re := plan()
	node, detail = re.Realloc()
	if re.Trigger != "speed node=1 -50%" || node != 1 || !slices.Equal(re.Prev, Allocation{6, 6}) {
		t.Fatalf("reallocation %+v, want trigger node=1 -50%% after [6 6]", re)
	}
	if want := "speed node=1 -50%: [6 6] → [8 4], 2 tiles moved, bottleneck 3 → 2"; detail != want {
		t.Fatalf("realloc line %q, want %q", detail, want)
	}
}

func TestTilesMovedAndTrigger(t *testing.T) {
	if got := tilesMoved(Allocation{8, 8}, Allocation{12, 4}); got != 4 {
		t.Fatalf("tilesMoved = %d, want 4", got)
	}
	if k, got := attributeTrigger([]float64{2, 2}, []float64{2, 2}); got != "speed-drift" || k != -1 {
		t.Fatalf("no-drift trigger %d %q", k, got)
	}
	if k, got := attributeTrigger([]float64{2, 4}, []float64{2, 6}); !strings.Contains(got, "node=1 +50%") || k != 1 {
		t.Fatalf("speed-up trigger %d %q", k, got)
	}
}
