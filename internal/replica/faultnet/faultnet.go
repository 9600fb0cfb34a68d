// Package faultnet wraps net.Conn with deterministic byte-level
// faults — sever at an offset, delay every operation, drop or
// duplicate a single byte — for exercising replication's reconnect
// and redelivery machinery. A stream protocol cannot survive a
// dropped or duplicated byte in place; what the tests assert is that
// the framing CRC detects the desync, the connection dies, and the
// reconnect handshake resumes with no record lost or applied twice.
package faultnet

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// Plan scripts one connection's faults. Offsets are 1-based positions
// in the connection's byte stream; zero disables a fault.
type Plan struct {
	// SeverAfter force-closes the connection once this many total
	// bytes (reads + writes combined) have crossed it.
	SeverAfter int64
	// Delay pauses every Read and Write call.
	Delay time.Duration
	// DropAt swallows the outgoing byte at this write-stream offset:
	// the writer believes it was sent, the peer never sees it.
	DropAt int64
	// DupAt sends the outgoing byte at this write-stream offset twice.
	DupAt int64
}

// Conn is a net.Conn with a fault Plan applied.
type Conn struct {
	net.Conn
	plan Plan

	mu      sync.Mutex
	total   int64 // bytes in either direction, for SeverAfter
	written int64 // write-stream offset, for DropAt/DupAt
	severed bool
}

// Wrap applies plan to c.
func Wrap(c net.Conn, plan Plan) *Conn {
	return &Conn{Conn: c, plan: plan}
}

// account charges n stream bytes and severs the connection when the
// budget crosses. It returns how many of the n bytes are allowed
// through before the cut.
func (c *Conn) account(n int) (allowed int, severed bool) {
	if c.plan.SeverAfter <= 0 {
		c.total += int64(n)
		return n, false
	}
	remain := c.plan.SeverAfter - c.total
	if remain <= 0 {
		c.severed = true
		return 0, true
	}
	if int64(n) >= remain {
		c.total = c.plan.SeverAfter
		c.severed = true
		return int(remain), true
	}
	c.total += int64(n)
	return n, false
}

func (c *Conn) Read(b []byte) (int, error) {
	if c.plan.Delay > 0 {
		time.Sleep(c.plan.Delay)
	}
	c.mu.Lock()
	if c.severed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	allowed, cut := c.account(n)
	c.mu.Unlock()
	if cut {
		c.Conn.Close()
		if allowed == 0 {
			return 0, net.ErrClosed
		}
		return allowed, nil // tear mid-read: deliver the prefix, then die
	}
	return n, err
}

func (c *Conn) Write(b []byte) (int, error) {
	if c.plan.Delay > 0 {
		time.Sleep(c.plan.Delay)
	}
	c.mu.Lock()
	if c.severed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	start := c.written
	c.written += int64(len(b))
	allowed, cut := c.account(len(b))
	c.mu.Unlock()

	// Byte-level mangling: build the on-wire image of this chunk. The
	// caller is told len(b) bytes went out either way — that's the
	// fault: the wire disagrees with the writer.
	wire := b[:allowed]
	if off := c.plan.DropAt; off > start && off <= start+int64(allowed) {
		i := off - start - 1
		mangled := make([]byte, 0, allowed-1)
		mangled = append(mangled, wire[:i]...)
		mangled = append(mangled, wire[i+1:]...)
		wire = mangled
	} else if off := c.plan.DupAt; off > start && off <= start+int64(allowed) {
		i := off - start - 1
		mangled := make([]byte, 0, allowed+1)
		mangled = append(mangled, wire[:i+1]...)
		mangled = append(mangled, wire[i:]...)
		wire = mangled
	}
	if len(wire) > 0 {
		if _, err := c.Conn.Write(wire); err != nil {
			return 0, err
		}
	}
	if cut {
		c.Conn.Close()
		if allowed == 0 {
			return 0, net.ErrClosed
		}
	}
	return len(b), nil
}

// Dialer builds a dial hook whose i-th connection gets plans(i). Use
// it as FollowerConfig.Dial to script a deterministic fault sequence
// across reconnects.
func Dialer(plans func(attempt int) Plan) func(addr string) (net.Conn, error) {
	var mu sync.Mutex
	attempt := 0
	return func(addr string) (net.Conn, error) {
		mu.Lock()
		i := attempt
		attempt++
		mu.Unlock()
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return Wrap(c, plans(i)), nil
	}
}

// RandomSevers builds a plan generator that severs each connection
// after a random byte budget in [lo, hi), seeded for reproducibility.
// The first clean connections pass untouched (the bootstrap handshake
// usually wants one clean pass).
func RandomSevers(seed int64, lo, hi int64, clean int) func(int) Plan {
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return func(i int) Plan {
		if i < clean {
			return Plan{}
		}
		mu.Lock()
		defer mu.Unlock()
		return Plan{SeverAfter: lo + rng.Int63n(hi-lo)}
	}
}
