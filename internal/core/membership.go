package core

import "fmt"

// The membership view: one nodeSession per Conv node, append-only, plus
// the failover path that moves a dead session's tiles to the survivors.

// snapshot returns the current membership view. The slice is append-only
// (RemoveNode tombstones a session rather than shrinking the slice, so
// node indices are stable for the life of the Central), which makes the
// snapshot safe to read without further locking.
func (c *Central) snapshot() []*nodeSession {
	c.sessMu.Lock()
	s := c.sessions[:len(c.sessions):len(c.sessions)]
	c.sessMu.Unlock()
	return s
}

// session returns node k's session, or nil when k is out of range.
func (c *Central) session(k int) *nodeSession {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	if k < 0 || k >= len(c.sessions) {
		return nil
	}
	return c.sessions[k]
}

// addSession meters conn, appends a session for it to the membership
// view — at construction or on a live join — spawns the session's
// supervisor and names its trace track. For a live join the caller
// (AddNode) has already grown the scheduler estimate, so an allocation
// racing this append sees a consistent view whichever side of the
// append it lands on.
func (c *Central) addSession(conn Conn, dial Dialer) int {
	if c.metrics != nil {
		conn = InstrumentConn(conn, c.metrics.Wire)
	}
	c.sessMu.Lock()
	k := len(c.sessions)
	s := newNodeSession(k, c, conn, dial)
	c.sessions = append(c.sessions, s)
	c.loopWG.Add(1)
	c.sessMu.Unlock()
	go s.run()
	c.trace.SetThreadName(k+1, fmt.Sprintf("conv-%d", k))
	return k
}

// AddNode grows the membership view with a new Conv node while the
// runtime is live: the node gets a session (with reconnect support when
// dial is non-nil), a fresh scheduler estimate at the initial value, and
// a health-tracker slot, and receives tiles from the next allocation
// onward. Returns the new node's index.
func (c *Central) AddNode(conn Conn, dial Dialer) int {
	// Grow the estimate before publishing the session so a concurrent
	// allocation never sees a node without a speed.
	c.driver.Add()
	c.health.Grow(1)
	k := c.addSession(conn, dial)
	c.flight.Record("node-join", 0, -1, k, "")
	return k
}

// RemoveNode retires node k from the membership view: its session is
// closed, queued tiles fail over to surviving nodes, and the session
// never reconnects (the index stays valid as a tombstone so node
// numbering is stable). Reports whether k named a live node.
func (c *Central) RemoveNode(k int) bool {
	s := c.session(k)
	if s == nil {
		return false
	}
	s.retire()
	c.flight.Record("node-leave", 0, -1, k, "")
	return true
}

// reviveNode restores a reconnected node's scheduler estimate so it
// re-enters the allocation (the EWMA of a dead node decays toward zero
// and would otherwise never assign it work again).
func (c *Central) reviveNode(k int) {
	c.driver.Revive(k)
	if c.metrics != nil {
		c.metrics.Reconnects.With(nodeLabel(k)).Inc()
	}
}

// redispatch re-routes tasks stranded by a connection failure to
// surviving nodes. A tile with no alive node left aborts its image's
// inference — the caller sees the same "no alive conv node" error the
// dispatcher raises.
func (c *Central) redispatch(orphans []*Message) {
	for _, m := range orphans {
		if m.Kind != KindTask {
			continue
		}
		placed := false
		for _, s := range c.snapshot() {
			if s.Alive() {
				c.pending.markEnqueued(pendingKey{m.ImageID, m.TileID}, s.id, monoNow(), len(m.Payload))
				if !s.enqueue(c.ctx, m) {
					continue
				}
				if c.metrics != nil {
					c.metrics.TilesDispatched.With(nodeLabel(s.id)).Inc()
				}
				c.flight.Record("redispatch", m.ImageID, int(m.TileID), s.id, "")
				placed = true
				break
			}
		}
		if !placed {
			m.ReleasePayload()
			if e, ok := c.pending.claim(pendingKey{m.ImageID, m.TileID}); ok {
				c.flight.Record("abort", m.ImageID, int(m.TileID), -1, "no alive conv node")
				e.col.abort(fmt.Errorf("core: no alive conv node for tile %d", m.TileID))
			}
		}
	}
}
