package experiments

import (
	"context"
	"net"
	"sync"
	"time"

	"adcnn/internal/core"
	"adcnn/internal/models"
)

// liveCluster is the fixture the live stream bench boots: a pool of
// Conv nodes on loopback TCP, each a NodeServer over its own VGG-sim,
// that Centrals dial into. The comparison runs two Centrals on one pool,
// and each is just another dial: the node side serves every connection
// as its own session.
type liveCluster struct {
	opt    models.Options
	addrs  []string
	lns    []net.Listener
	ctx    context.Context // every node session runs under it
	cancel context.CancelFunc
	wg     sync.WaitGroup // accept loops and node sessions
}

// The T_L and γ every Central of the fixture runs with: the bench times
// no tile out, so the deadline only has to stay clear of the slowest
// tile on a loaded host.
const (
	liveTL    = 10 * time.Second
	liveGamma = 0.9
)

// startLiveCluster starts n nodes, each serving its own VGG-sim under
// opt.
func startLiveCluster(opt models.Options, n int) (*liveCluster, error) {
	ctx, cancel := context.WithCancel(context.Background())
	cl := &liveCluster{opt: opt, ctx: ctx, cancel: cancel}
	for k := 0; k < n; k++ {
		m, err := models.Build(models.VGGSim(), opt, 42)
		if err != nil {
			cl.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.lns = append(cl.lns, ln)
		cl.addrs = append(cl.addrs, ln.Addr().String())
		cl.serve(ln, core.NewNodeServer(core.NewWorker(k+1, m), 0))
	}
	return cl, nil
}

// central dials every node and starts a Central over the pool. cfg
// carries the caller's observability settings; the fixture owns the
// model (a fresh instance per Central: two Centrals must not share one
// model's scratch state), the connections, T_L and γ.
func (cl *liveCluster) central(cfg core.CentralConfig) (*core.Central, error) {
	m, err := models.Build(models.VGGSim(), cl.opt, 42)
	if err != nil {
		return nil, err
	}
	cfg.Model, cfg.TL, cfg.Gamma = m, liveTL, liveGamma
	cfg.Conns = nil
	d := net.Dialer{Timeout: time.Second}
	for _, addr := range cl.addrs {
		raw, err := d.DialContext(cl.ctx, "tcp", addr)
		if err != nil {
			for _, c := range cfg.Conns {
				c.Close()
			}
			return nil, err
		}
		cfg.Conns = append(cfg.Conns, core.NewStreamConn(raw))
	}
	return cfg.Start()
}

// stop takes every node off the network and waits for the accept loops
// and node sessions to return: cancelling the context makes each session
// close its connection. Centrals are the caller's to shut down first.
func (cl *liveCluster) stop() {
	cl.cancel()
	for _, ln := range cl.lns {
		ln.Close()
	}
	cl.wg.Wait()
}

// serve accepts on ln until stop closes it; every accepted connection
// gets its own session of ns.
func (cl *liveCluster) serve(ln net.Listener, ns *core.NodeServer) {
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			cl.wg.Add(1)
			go func() {
				defer cl.wg.Done()
				_ = ns.ServeConn(cl.ctx, core.NewStreamConn(raw))
				raw.Close()
			}()
		}
	}()
}
