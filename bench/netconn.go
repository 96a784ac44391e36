package main

import (
	"net"
	"sync/atomic"
	"time"
)

// countingConn counts the bytes that cross one node socket, seen from
// the Central's end: writes are the uplink, reads the downlink.
type countingConn struct {
	net.Conn
	up, down atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.down.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.up.Add(int64(n))
	return n, err
}

// Pacing constants. A chunk is the unit the link is reserved in: small
// enough that the receiver sees a frame's last byte close to when a
// real link would deliver it, large enough that the writer seldom
// sleeps. Sleeps shorter than paceSlack are skipped; the chunk then
// leaves that much early and the next one waits that much longer.
const (
	paceChunk = 16 << 10
	paceSlack = 200 * time.Microsecond
	// maxOwed caps the oversleep credited back to the writer, so a host
	// stall cannot turn into a long unpaced burst.
	maxOwed = 5 * time.Millisecond
)

// pacedConn shapes the write direction of a socket to a fixed rate by
// deadlines, not by sleeping per chunk. It models a link that sends
// whenever it has data: a chunk offered at time a finishes at
// max(previous finish, a) + size/rate, and is written to the socket
// then, so the peer receives it no earlier than a link of that rate
// would deliver it. The writer sleeps only when that finish time is
// more than paceSlack away. A sleep that overruns (timers here tick at
// about 1 ms), and the socket write itself, hold the writer back past
// the finish time, so its next chunk is treated as offered that much
// earlier: the overrun is repaid instead of lowering the rate, and an
// idle link still banks nothing. Wrapping both ends of
// a socket shapes both directions. One goroutine writes at a time (the
// session send loop on the Central, the compute loop on a node), so the
// schedule needs no lock.
type pacedConn struct {
	net.Conn
	nsPerByte float64
	next      time.Time     // when the link has sent everything offered so far
	owed      time.Duration // how far past its finish time the last chunk held the writer
}

func newPacedConn(c net.Conn, mbps float64) *pacedConn {
	return &pacedConn{Conn: c, nsPerByte: 8e3 / mbps}
}

// reserve books n bytes offered at now and returns how far ahead of now
// their transfer ends.
func (p *pacedConn) reserve(n int, now time.Time) time.Duration {
	if offered := now.Add(-p.owed); p.next.Before(offered) {
		p.next = offered
	}
	p.owed = 0
	p.next = p.next.Add(time.Duration(float64(n) * p.nsPerByte))
	return p.next.Sub(now)
}

func (p *pacedConn) Write(b []byte) (int, error) {
	total := 0
	for len(b) > 0 {
		c := b
		if len(c) > paceChunk {
			c = c[:paceChunk]
		}
		if ahead := p.reserve(len(c), time.Now()); ahead > paceSlack {
			time.Sleep(ahead)
		}
		n, err := p.Conn.Write(c)
		p.owed = min(max(time.Since(p.next), 0), maxOwed)
		total += n
		if err != nil {
			return total, err
		}
		b = b[n:]
	}
	return total, nil
}
