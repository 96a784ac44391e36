package core

import "fmt"

// The membership view is fixed at Start: one nodeSession per Conv node,
// indexed by node. A node that dies or leaves is a connection that
// fails; the failover path below moves its stranded tiles to the
// survivors, and a dialer (when configured) brings it back.

// reviveNode restores a reconnected node's scheduler estimate so it
// re-enters the allocation (the EWMA of a dead node decays toward zero
// and would otherwise never assign it work again).
func (c *Central) reviveNode(k int) {
	c.driver.Revive(k)
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
		for _, s := range c.sessions {
			if s.Alive() {
				c.pending.markEnqueued(pendingKey{m.ImageID, m.TileID}, s.id, monoNow(), len(m.Payload))
				if !s.enqueue(c.ctx, m) {
					continue
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
