package experiments

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adcnn/internal/core"
	"adcnn/internal/models"
)

// liveCluster is the one fixture every live-runtime experiment boots: a
// pool of Conv nodes on loopback TCP, each a NodeServer over one worker,
// that any number of Centrals dial into. Real sockets everywhere, so
// crashing a node is closing its listener and its connections, not
// flipping a flag, and a second replica is just a second dial.
type liveCluster struct {
	opt    models.Options
	nodes  []*liveNode
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // accept loops and node sessions
}

// liveNode is one Conv node of the pool and the handle experiments
// inject faults through: w takes SetDelay/SetClockSkew, rate throttles
// the node's sockets, crash/restart take it off and back on the network.
type liveNode struct {
	idx  int
	addr string
	w    *core.Worker
	rate atomic.Int64 // bytes/sec cap on every connection; 0 = unthrottled

	cl *liveCluster
	ns *core.NodeServer
	// crash closes the listener and every live server-side connection,
	// keeping the address so restart revives the node in place.
	crash func()
}

// The T_L and γ every experiment's Central runs with: no experiment
// times tiles out on purpose, so the deadline only has to stay clear of
// the slowest injected fault.
const (
	liveTL    = 10 * time.Second
	liveGamma = 0.9
)

// startLiveCluster builds VGG-sim under opt and starts n nodes serving
// it. setup, when non-nil, configures each worker (delay, metrics)
// before it serves — mutating Worker fields later races with its reads.
func startLiveCluster(opt models.Options, n int, setup func(*core.Worker)) (*liveCluster, error) {
	m, err := models.Build(models.VGGSim(), opt, 42)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	cl := &liveCluster{opt: opt, ctx: ctx, cancel: cancel}
	for k := 0; k < n; k++ {
		w := core.NewWorker(k+1, m)
		if setup != nil {
			setup(w)
		}
		node := &liveNode{idx: k, w: w, cl: cl, ns: core.NewNodeServer(w, 0)}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cl.stop()
			return nil, err
		}
		node.addr = ln.Addr().String()
		node.serve(ln)
		cl.nodes = append(cl.nodes, node)
	}
	return cl, nil
}

// central dials every node and starts a Central over the pool. cfg
// carries the caller's observability and link settings; the fixture owns
// the model (a fresh instance per Central: replicas must not contend on
// one model's scratch state), the connections and their reconnect
// dialers, T_L and γ.
func (cl *liveCluster) central(cfg core.CentralConfig) (*core.Central, error) {
	m, err := models.Build(models.VGGSim(), cl.opt, 42)
	if err != nil {
		return nil, err
	}
	cfg.Model, cfg.TL, cfg.Gamma = m, liveTL, liveGamma
	cfg.Conns, cfg.Dialers = nil, nil
	for _, n := range cl.nodes {
		conn, err := n.dial(cl.ctx)
		if err != nil {
			for _, c := range cfg.Conns {
				c.Close()
			}
			return nil, err
		}
		cfg.Conns = append(cfg.Conns, conn)
		cfg.Dialers = append(cfg.Dialers, n.dial)
	}
	return cfg.Start()
}

// liveCentral boots the fixture with one Central on it — the shape every
// single-replica experiment runs on. stop shuts the Central down first,
// then the pool.
func liveCentral(opt models.Options, n int, setup func(*core.Worker), cfg core.CentralConfig) (*core.Central, *liveCluster, func(), error) {
	cl, err := startLiveCluster(opt, n, setup)
	if err != nil {
		return nil, nil, nil, err
	}
	c, err := cl.central(cfg)
	if err != nil {
		cl.stop()
		return nil, nil, nil, err
	}
	return c, cl, func() { c.Shutdown(); cl.stop() }, nil
}

// stop takes every node off the network and waits for the accept loops
// and node sessions to return. Centrals are the caller's to shut down
// first.
func (cl *liveCluster) stop() {
	cl.cancel()
	for _, n := range cl.nodes {
		n.crash()
	}
	cl.wg.Wait()
}

// serve accepts on ln until the node crashes; every accepted connection
// gets its own NodeServer session behind the node's throttle. The
// sessions run under a per-listener context: cancelling it makes each
// session close its connection.
func (n *liveNode) serve(ln net.Listener) {
	ctx, cancel := context.WithCancel(n.cl.ctx)
	n.crash = func() { cancel(); ln.Close() }
	n.cl.wg.Add(1)
	go func() {
		defer n.cl.wg.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			n.cl.wg.Add(1)
			go func() {
				defer n.cl.wg.Done()
				_ = n.ns.ServeConn(ctx, core.NewStreamConn(&throttledConn{Conn: raw, rate: &n.rate}))
				raw.Close()
			}()
		}
	}()
}

// dial opens a fresh Central-side connection; it doubles as the
// session's reconnect dialer, so a restarted node is found at the same
// address.
func (n *liveNode) dial(ctx context.Context) (core.Conn, error) {
	d := net.Dialer{Timeout: time.Second}
	raw, err := d.DialContext(ctx, "tcp", n.addr)
	if err != nil {
		return nil, err
	}
	return core.NewStreamConn(raw), nil
}

// restart re-binds the node's original address (retrying briefly in
// case the old socket lingers) and resumes accepting.
func (n *liveNode) restart() error {
	var err error
	for i := 0; i < 50; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", n.addr); err == nil {
			n.serve(ln)
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return err
}

// throttleChunk is the transfer granularity of a throttled connection:
// small enough that a collapsed link stays smooth at the drill's rates,
// large enough that the per-chunk sleep dominates syscall cost.
const throttleChunk = 512

// throttledConn enforces a bytes/sec cap on both directions of a
// server-side connection by sleeping after each chunk of I/O — reads
// model a collapsed uplink (Central→node tasks), writes a collapsed
// downlink (node→Central results). rate 0 passes through untouched.
type throttledConn struct {
	net.Conn
	rate *atomic.Int64
}

func (t *throttledConn) Read(p []byte) (int, error) {
	r := t.rate.Load()
	if r <= 0 {
		return t.Conn.Read(p)
	}
	if len(p) > throttleChunk {
		p = p[:throttleChunk]
	}
	n, err := t.Conn.Read(p)
	if n > 0 {
		time.Sleep(time.Duration(float64(n) / float64(r) * float64(time.Second)))
	}
	return n, err
}

func (t *throttledConn) Write(p []byte) (int, error) {
	var total int
	for len(p) > 0 {
		r := t.rate.Load()
		if r <= 0 {
			n, err := t.Conn.Write(p)
			return total + n, err
		}
		c := p
		if len(c) > throttleChunk {
			c = c[:throttleChunk]
		}
		n, err := t.Conn.Write(c)
		total += n
		if n > 0 {
			time.Sleep(time.Duration(float64(n) / float64(r) * float64(time.Second)))
		}
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}
