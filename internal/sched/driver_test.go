package sched

import (
	"math/rand"
	"slices"
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

	audit     *Audit
	last      Allocation // the previous successful plan's split
	decisions int        // decisions the audit should hold

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
	s.audit = NewAudit(0, nil)
	s.d = NewDriver(n, []float64{0.5, 0.9}[rng.Intn(2)], float64(s.tiles)/float64(n), s.audit)
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
	p, err := s.d.Plan(s.now, image, s.tiles, s.alive, 0, nil)
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

	// Audit: exactly one decision for a plan that changed the split (or
	// is the first), stamped with this plan; none for a repeat.
	changed := s.last == nil || !slices.Equal(s.last, p.Alloc)
	if changed {
		s.decisions++
	}
	ds := s.audit.Decisions()
	if len(ds) != s.decisions {
		t.Fatalf("image %d: audit holds %d decisions, want %d (split %v after %v)", image, len(ds), s.decisions, p.Alloc, s.last)
	}
	if dec := ds[len(ds)-1]; changed && (dec.Image != image || !dec.At.Equal(s.now) ||
		!slices.Equal(dec.Next, p.Alloc) || !slices.Equal(dec.Prev, s.last) || !slices.Equal(dec.Speeds, p.Speeds)) {
		t.Fatalf("image %d: decision %+v does not record plan %+v after %v", image, dec, p, s.last)
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
	d := NewDriver(2, 0.9, 4, nil)
	for _, alive := range [][]bool{{true}, {true, true, true}} {
		if _, err := d.Plan(time.Unix(0, 0), 1, 4, alive, 0, nil); err == nil {
			t.Fatalf("plan over %d liveness flags for 2 nodes succeeded", len(alive))
		}
	}
}

// TestDriverConcurrentUse: plans, settles, revivals and reads from
// many goroutines (the pipelined Central's access pattern), with the
// audit attached, for the race detector.
func TestDriverConcurrentUse(t *testing.T) {
	d := NewDriver(3, 0.9, 4, NewAudit(0, nil))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			alive := []bool{true, g%2 == 0, true}
			for i := 0; i < 200; i++ {
				p, err := d.Plan(time.Unix(int64(i), 0), uint32(i), 12, alive, 0, nil)
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
