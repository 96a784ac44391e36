package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"adcnn/internal/cluster"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/perfmodel"
	"adcnn/internal/tensor"
)

// scriptedNode is a Conv node that computes nothing: it answers a tile
// task at once with a result of the right shape, but for image i only
// quota[i-1] times — the rest of its tiles are swallowed and miss T_L.
// That makes the Central's per-image n_k a script.
func scriptedNode(conn Conn, result []byte, quota []int) {
	sent := make(map[uint32]int)
	for {
		m, err := conn.Recv()
		if err != nil || m.Kind != KindTask {
			return
		}
		m.ReleasePayload()
		if sent[m.ImageID] >= quota[m.ImageID-1] {
			continue
		}
		sent[m.ImageID]++
		_ = conn.Send(&Message{Kind: KindResult, ImageID: m.ImageID, TileID: m.TileID, Payload: result})
	}
}

// TestSimAndCentralAllocateIdentically: the simulator and the live
// runtime run one scheduling policy, so fed the same per-image n_k
// sequence they make the same allocations. The sequence comes from a
// simulated run with two mid-run slowdowns and a node failure; a live
// Central over in-process pipes then replays it against scripted nodes
// (a failure becomes RemoveNode) and must reproduce every split.
func TestSimAndCentralAllocateIdentically(t *testing.T) {
	const nodes, images, failAt, failed = 4, 14, 9, 3
	grid := fdsp.Grid{Rows: 4, Cols: 4}
	devs := cluster.NewPiCluster(nodes)
	sim, err := NewSim(SimConfig{
		Model: models.VGG16().Systemized(), Grid: grid,
		Nodes: devs, Central: cluster.NewDevice(0, perfmodel.RaspberryPi()),
		Link: perfmodel.WiFi(), Pruning: true, PruneRatio: 0.032, Gamma: 0.9, Pipeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	simRuns := sim.RunImages(images, []cluster.ThrottleEvent{
		{Image: 2, DeviceID: devs[1].ID, Fraction: 0.3},
		{Image: 5, DeviceID: devs[2].ID, Fraction: 0.5},
		{Image: failAt, DeviceID: devs[failed].ID, Fraction: 0},
	})
	quota := make([][]int, nodes)
	shortfalls := 0
	for _, r := range simRuns {
		for k := range quota {
			quota[k] = append(quota[k], r.ReceivedByTL[k])
			if r.ReceivedByTL[k] < r.Alloc[k] {
				shortfalls++
			}
		}
	}
	if shortfalls == 0 {
		t.Fatal("the simulated run never returned fewer tiles than allocated; the replay would prove nothing")
	}

	m, err := models.Build(models.VGGSim(), models.Options{Grid: grid}, 42)
	if err != nil {
		t.Fatal(err)
	}
	full := m.FrontOutputShape()
	result := AppendTensor(nil, tensor.New(1, full[0], full[1]/grid.Rows, full[2]/grid.Cols))
	conns := make([]Conn, nodes)
	for k := range conns {
		a, b := Pipe()
		conns[k] = a
		go scriptedNode(b, result, quota[k])
	}
	c, err := NewCentral(m, conns, 100*time.Millisecond, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(1)), 1)
	for i, r := range simRuns {
		if i == failAt {
			c.RemoveNode(failed)
		}
		_, st, err := c.Infer(x)
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if !slices.Equal(st.Alloc, r.Alloc) {
			t.Fatalf("image %d: central allocated %v, sim %v", i, st.Alloc, r.Alloc)
		}
		if !slices.Equal(st.Received, r.ReceivedByTL) {
			t.Fatalf("image %d: central counted n_k=%v, script says %v", i, st.Received, r.ReceivedByTL)
		}
	}
	if got, want := c.driver.Speeds(), sim.Stats().Speeds(); !slices.Equal(got, want) {
		t.Fatalf("final estimates differ: central %v, sim %v", got, want)
	}
}
