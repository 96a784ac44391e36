package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"adcnn/internal/core"
	"adcnn/internal/models"
)

// tileDeadline is T_L, adcnn-central's default. No tile of an unfaulted
// workload comes near it; a missed tile counts the image as failed.
const tileDeadline = 5 * time.Second

// cluster is the live system under test: one Central and convNodes
// in-process Conv nodes, each behind its own TCP loopback socket and
// with its own model instance, exactly as adcnn-central and adcnn-conv
// wire them up. No Worker.Delay anywhere: the nodes compute.
type cluster struct {
	w       workload
	central *core.Central
	pipe    *core.Pipeline  // nil when w.Depth == 1
	model   *models.Model   // the Central's instance (and the oracle)
	nodes   []*models.Model // one instance per Conv node
	socks   []*countingConn // Central end of each node socket

	cancel    context.CancelFunc
	wg        sync.WaitGroup // node sessions
	closeOnce sync.Once
}

func buildModel(w workload) (*models.Model, error) {
	m, err := models.Build(w.Model(), w.options(), weightSeed)
	if err != nil {
		return nil, err
	}
	if w.Int8 {
		if _, err := m.QuantizeInt8(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// startCluster builds the models, starts the nodes, dials them and
// creates the Central. rec, when non-nil, wraps both ends of every node
// socket in span recorders (the traced run).
func startCluster(w workload, rec *recorder) (*cluster, error) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{w: w, cancel: cancel}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()

	var err error
	if c.model, err = buildModel(w); err != nil {
		return nil, fmt.Errorf("build central model: %w", err)
	}
	var conns []core.Conn
	for k := 0; k < convNodes; k++ {
		m, err := buildModel(w)
		if err != nil {
			return nil, fmt.Errorf("build node %d model: %w", k, err)
		}
		c.nodes = append(c.nodes, m)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen node %d: %w", k, err)
		}
		ns := core.NewNodeServer(core.NewWorker(k, m), 0)
		c.wg.Add(1)
		go func(k int) {
			defer c.wg.Done()
			defer ln.Close()
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			if w.LinkMbps > 0 {
				raw = newPacedConn(raw, w.LinkMbps)
			}
			conn := core.NewStreamConn(raw)
			if rec != nil {
				conn = rec.wrapNode(k, conn)
			}
			// A session that ends in an error fails the images in flight,
			// which the driver counts.
			_ = ns.ServeConn(ctx, conn)
			raw.Close()
		}(k)
		raw, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
		if err != nil {
			ln.Close() // unblocks the Accept above
			return nil, fmt.Errorf("dial node %d: %w", k, err)
		}
		sock := &countingConn{Conn: raw}
		c.socks = append(c.socks, sock)
		var shaped net.Conn = sock
		if w.LinkMbps > 0 {
			shaped = newPacedConn(sock, w.LinkMbps)
		}
		conn := core.NewStreamConn(shaped)
		if rec != nil {
			conn = rec.wrapCentral(k, conn)
		}
		conns = append(conns, conn)
	}
	if c.central, err = core.NewCentral(c.model, conns, tileDeadline, 0.9); err != nil {
		return nil, err
	}
	if w.Depth > 1 {
		c.pipe = core.NewPipeline(c.central, w.Depth)
	}
	ok = true
	return c, nil
}

// close shuts the Central down, which closes the sockets and ends every
// node session, and waits for the sessions to return. Closing twice is
// harmless.
func (c *cluster) close() {
	c.closeOnce.Do(func() {
		if c.central != nil {
			c.central.Shutdown()
		} else {
			for _, s := range c.socks {
				s.Close()
			}
		}
		c.cancel()
		c.wg.Wait()
	})
}

// wireBytes returns the bytes that have crossed all node sockets.
func (c *cluster) wireBytes() (up, down int64) {
	for _, s := range c.socks {
		up += s.up.Load()
		down += s.down.Load()
	}
	return up, down
}
