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
// nothing, so Algorithm 2 starves them), lose and regain their links,
// shares move. The clock is a variable.
type schedule struct {
	t     *testing.T
	rng   *rand.Rand
	d     *Driver
	tiles int
	now   time.Time

	views   []NodeView
	stalled []bool
	share   []float64
	revived []time.Time // last probation revival per node, zero = never
}

func newSchedule(t *testing.T, seed int64) *schedule {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(5)
	s := &schedule{
		t: t, rng: rng, tiles: 4 + rng.Intn(29), now: time.Unix(1000, 0),
		views: make([]NodeView, n), stalled: make([]bool, n), revived: make([]time.Time, n),
	}
	for k := range s.views {
		s.views[k].Alive = true
	}
	s.d = NewDriver(n, []float64{0.5, 0.9}[rng.Intn(2)], float64(s.tiles)/float64(n), nil)
	return s
}

// mutate applies one random fault or repair.
func (s *schedule) mutate() {
	k := s.rng.Intn(len(s.views))
	switch s.rng.Intn(12) {
	case 0:
		s.views[k].Alive = false
	case 1:
		if !s.views[k].Alive {
			s.views[k].Alive = true
			if s.rng.Intn(2) == 0 { // a reconnect revives; a silent return leaves it to probation
				s.d.Revive(k)
			}
		}
	case 2:
		s.stalled[k] = true
	case 3:
		s.stalled[k] = false
	case 4: // link collapse
		s.views[k].UpBps, s.views[k].DownBps = 1e3, 1e3
	case 5: // link heal, or estimate expiry
		r := float64(s.rng.Intn(2)) * 1e8
		s.views[k].UpBps, s.views[k].DownBps = r, r
	case 6:
		s.share = make([]float64, s.rng.Intn(len(s.views)+1))
		for i := range s.share {
			s.share[i] = 0.1 + 0.9*s.rng.Float64()
		}
		s.d.SetShare(s.share)
	case 7:
		s.d.SetLinkAware(s.rng.Intn(2) == 0)
	}
}

// step plans and settles one image, checking every policy invariant.
func (s *schedule) step(image uint32) {
	t := s.t
	s.now = s.now.Add(time.Duration(10+s.rng.Intn(1500)) * time.Millisecond)
	raw := s.d.Speeds()
	best, anyAlive := 0.0, false
	for k, v := range s.views {
		if v.Alive {
			anyAlive = true
			best = max(best, raw[k])
		}
	}
	p, err := s.d.Plan(s.now, image, s.tiles, s.views, 0, nil)
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
	for k, v := range s.views {
		starved := v.Alive && raw[k] < probationFrac*best
		since := s.now.Sub(s.revived[k])
		switch wasRevived := slices.Contains(p.Revived, k); {
		case wasRevived && !starved:
			t.Fatalf("image %d: node %d revived at speed %g (best %g, alive %v)", image, k, raw[k], best, v.Alive)
		case wasRevived && since < probationInterval:
			t.Fatalf("image %d: node %d revived twice within %v", image, k, since)
		case wasRevived:
			s.revived[k] = s.now
		case starved && since >= probationInterval:
			t.Fatalf("image %d: node %d starved and not revived for %v", image, k, since)
		}
	}

	// The speeds are the (post-revival) estimates, zero for the dead,
	// scaled by the share.
	want := s.d.Speeds()
	for k := range want {
		if !s.views[k].Alive {
			want[k] = 0
		} else if k < len(s.share) {
			want[k] *= s.share[k]
		}
	}
	if !slices.Equal(p.Speeds, want) {
		t.Fatalf("image %d: plan speeds %v, want %v", image, p.Speeds, want)
	}
	if p.Alloc.Total() != s.tiles {
		t.Fatalf("image %d: allocated %d of %d tiles: %v", image, p.Alloc.Total(), s.tiles, p.Alloc)
	}
	for k, x := range p.Alloc {
		if x > 0 && !s.views[k].Alive {
			t.Fatalf("image %d: dead node %d got %d tiles", image, k, x)
		}
	}
	if p.EffSpeeds == nil {
		// No usable link estimate: the plan is plain Algorithm 3.
		plain, _ := Allocate(s.tiles, want, 0, nil, nil)
		if !slices.Equal(p.Alloc, plain) {
			t.Fatalf("image %d: plan %v differs from Allocate %v on %v", image, p.Alloc, plain, want)
		}
	} else {
		for k, e := range p.EffSpeeds {
			if e > p.Speeds[k] {
				t.Fatalf("image %d: derating raised node %d from %g to %g", image, k, p.Speeds[k], e)
			}
		}
		for _, k := range p.Revived {
			if p.LinkSecs[k] != 0 {
				t.Fatalf("image %d: revived node %d still carries link cost %g", image, k, p.LinkSecs[k])
			}
		}
	}

	// A fault may land between an image's plan and its settle.
	if s.rng.Intn(20) == 0 {
		s.mutate()
	}
	received := make([]int, len(p.Alloc))
	for k, x := range p.Alloc {
		switch {
		case s.stalled[k] || !s.views[k].Alive:
		case s.rng.Intn(4) == 0:
			received[k] = s.rng.Intn(x + 1)
		default:
			received[k] = x
		}
	}
	s.d.Settle(received, float64(s.rng.Intn(3))*4096, float64(s.rng.Intn(3))*1024,
		time.Duration(s.rng.Intn(3))*20*time.Millisecond)
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

// TestDriverLinkCollapseShedsAndProbationReadmits is the chaos
// bandwidth drill without the wall clock: a collapsed link sheds its
// node only under link-aware dispatch, the shed node starves, and after
// the link heals probation re-admits it within one interval.
func TestDriverLinkCollapseShedsAndProbationReadmits(t *testing.T) {
	d := NewDriver(2, 0.9, 8, nil)
	views := []NodeView{{Alive: true, UpBps: 1e8, DownBps: 1e8}, {Alive: true, UpBps: 1e8, DownBps: 1e8}}
	now := time.Unix(0, 0)
	image := uint32(0)
	run := func() Plan {
		image++
		now = now.Add(100 * time.Millisecond)
		p, err := d.Plan(now, image, 16, views, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.Settle(p.Alloc, 64<<10, 16<<10, 20*time.Millisecond)
		return p
	}
	for i := 0; i < 5; i++ {
		run()
	}
	views[1].UpBps, views[1].DownBps = 1e5, 1e5 // 0.8 s per tile against a 20 ms image
	if p := run(); p.Alloc[1] != 8 || p.EffSpeeds != nil {
		t.Fatalf("speed-only dispatch reacted to the link: %+v", p)
	}
	d.SetLinkAware(true)
	if p := run(); p.Alloc[1] != 0 {
		t.Fatalf("link-aware dispatch kept %d tiles behind the collapsed link (eff %v)", p.Alloc[1], p.EffSpeeds)
	}
	for i := 0; i < 5; i++ { // starve: 8 → 8e-5
		run()
	}
	views[1].UpBps, views[1].DownBps = 1e8, 1e8
	readmitted := false
	for start := now; now.Sub(start) <= probationInterval && !readmitted; {
		p := run()
		readmitted = slices.Contains(p.Revived, 1) && p.Alloc[1] > 0
	}
	if !readmitted {
		t.Fatal("healed node not re-admitted within one probation interval")
	}
}

// TestDriverPlanNeedsOneViewPerNode: the node set is fixed at
// construction, so a plan over more or fewer views is a caller bug.
func TestDriverPlanNeedsOneViewPerNode(t *testing.T) {
	d := NewDriver(2, 0.9, 4, nil)
	for _, views := range [][]NodeView{{{Alive: true}}, {{Alive: true}, {Alive: true}, {Alive: true}}} {
		if _, err := d.Plan(time.Unix(0, 0), 1, 4, views, 0, nil); err == nil {
			t.Fatalf("plan over %d views for 2 nodes succeeded", len(views))
		}
	}
}

// TestDriverConcurrentUse: plans, settles and the run-time setters from
// many goroutines (the pipelined Central's access pattern), for the
// race detector.
func TestDriverConcurrentUse(t *testing.T) {
	d := NewDriver(3, 0.9, 4, nil)
	d.SetLinkAware(true)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			views := []NodeView{{Alive: true, UpBps: 1e6}, {Alive: g%2 == 0}, {Alive: true, DownBps: 1e6}}
			for i := 0; i < 200; i++ {
				p, err := d.Plan(time.Unix(int64(i), 0), uint32(i), 12, views, 0, nil)
				if err != nil {
					t.Error(err)
					return
				}
				d.Settle(p.Alloc, 1024, 512, time.Millisecond)
				d.SetShare([]float64{0.5, 1})
				d.Revive(1)
				_ = d.Speeds()
			}
		}(g)
	}
	wg.Wait()
}
