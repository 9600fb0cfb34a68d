package replica

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"xixa/internal/server"
	"xixa/internal/wal"
)

// PrimaryConfig tunes the streaming side of a primary.
type PrimaryConfig struct {
	// Heartbeat is the idle interval between heartbeat frames on a
	// caught-up stream (default 200ms). It bounds follower staleness
	// detection: a follower that hears nothing for a few heartbeats
	// knows its primary is gone, not merely quiet.
	Heartbeat time.Duration
	// HandshakeTimeout bounds the hello exchange (default 5s).
	HandshakeTimeout time.Duration
}

func (c PrimaryConfig) withDefaults() PrimaryConfig {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 200 * time.Millisecond
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	return c
}

// Primary streams a server's WAL to followers. One Primary serves any
// number of concurrent followers, each from its own log cursor, so a
// slow follower never stalls a fast one (or the writers).
type Primary struct {
	srv   *server.Server
	cfg   PrimaryConfig
	epoch uint64

	mu     sync.Mutex
	ln     net.Listener
	states map[*followerConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

type followerConn struct {
	conn      net.Conn
	addr      string
	connected time.Time
	streamed  atomic.Uint64 // last LSN written to this follower
	acked     atomic.Uint64 // last durable LSN the follower reported
}

// FollowerStatus is one follower's replication position as the primary
// sees it.
type FollowerStatus struct {
	Addr string
	// StreamedLSN is the last record sent; AckedLSN the last the
	// follower reported durable. LagRecords is the primary's flushed
	// tip minus AckedLSN — how far behind a synchronous-read client
	// of that follower could observe.
	StreamedLSN uint64
	AckedLSN    uint64
	LagRecords  uint64
	ConnectedAt time.Time
}

// NewPrimary wraps a durable server as a replication primary, loading
// (or minting) its epoch from the durability directory. The server
// keeps serving writes exactly as before; streaming taps the WAL
// through cursors and touches no hot path.
func NewPrimary(srv *server.Server, cfg PrimaryConfig) (*Primary, error) {
	if srv.WAL() == nil {
		return nil, errors.New("replica: primary requires a durable server (Recover with Config.WALDir)")
	}
	epoch, err := LoadEpoch(srv.WALDir())
	if err != nil {
		return nil, err
	}
	if epoch == 0 {
		epoch = 1
		if err := StoreEpoch(srv.WALDir(), epoch); err != nil {
			return nil, err
		}
	}
	p := &Primary{
		srv:    srv,
		cfg:    cfg.withDefaults(),
		epoch:  epoch,
		states: make(map[*followerConn]struct{}),
	}
	p.instrument(srv.Metrics())
	return p, nil
}

// Epoch returns the primary's epoch.
func (p *Primary) Epoch() uint64 { return p.epoch }

// ListenAndServe binds addr and serves followers until Close,
// returning the bound address (useful with ":0").
func (p *Primary) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	p.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve accepts followers from ln in the background until Close.
func (p *Primary) Serve(ln net.Listener) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return
	}
	p.ln = ln
	p.wg.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				conn.Close()
				return
			}
			st := &followerConn{conn: conn, addr: conn.RemoteAddr().String(), connected: time.Now()}
			p.states[st] = struct{}{}
			p.wg.Add(1)
			p.mu.Unlock()
			go func() {
				defer p.wg.Done()
				p.handle(st)
				p.mu.Lock()
				delete(p.states, st)
				p.mu.Unlock()
				conn.Close()
			}()
		}
	}()
}

// Close stops accepting, drops every follower, and waits for the
// per-connection goroutines to exit.
func (p *Primary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	if p.ln != nil {
		p.ln.Close()
	}
	for st := range p.states {
		st.conn.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Primary) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Status reports every connected follower's position.
func (p *Primary) Status() []FollowerStatus {
	flushed := p.srv.WAL().Flushed()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]FollowerStatus, 0, len(p.states))
	for st := range p.states {
		acked := st.acked.Load()
		lag := uint64(0)
		if flushed > acked {
			lag = flushed - acked
		}
		out = append(out, FollowerStatus{
			Addr:        st.addr,
			StreamedLSN: st.streamed.Load(),
			AckedLSN:    acked,
			LagRecords:  lag,
			ConnectedAt: st.connected,
		})
	}
	return out
}

// sendError best-effort ships a terminal error frame and flushes.
func sendError(bw *bufio.Writer, msg string) {
	wal.WriteFrame(bw, append(message(msgError, len(msg)), msg...))
	bw.Flush()
}

// handle runs one follower connection: handshake, optional snapshot,
// then the record stream, with acks drained on a side goroutine.
func (p *Primary) handle(st *followerConn) {
	conn := st.conn
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	conn.SetDeadline(time.Now().Add(p.cfg.HandshakeTimeout))
	t, body, err := readFrame(br)
	if err != nil {
		return
	}
	if t != msgHello || len(body) != 17 {
		sendError(bw, fmt.Sprintf("bad hello: type %d, %d body bytes, want 17", t, len(body)))
		return
	}
	helloEpoch, _ := readU64(body[0:8])
	helloLSN, _ := readU64(body[8:16])
	helloFresh := body[16] != 0

	// Fencing: a follower that has witnessed a newer epoch is proof a
	// promotion happened — this primary was deposed while it wasn't
	// looking. It fences itself permanently before another write can
	// fork history, and tells the caller why.
	if helloEpoch > p.epoch {
		p.srv.Fence()
	}
	if p.srv.Fenced() {
		sendError(bw, fmt.Sprintf("fenced: epoch %d supersedes this primary's %d", helloEpoch, p.epoch))
		return
	}

	l := p.srv.WAL()
	if helloLSN > l.LastLSN() {
		// The follower holds records this primary never wrote — it
		// followed a different (newer) primary. Refuse rather than
		// stream a conflicting history under it.
		sendError(bw, fmt.Sprintf("diverged: follower at LSN %d, primary at %d", helloLSN, l.LastLSN()))
		return
	}

	// Snapshot bootstrap: ship the checkpoint first when the follower
	// is brand new (the image at LSN 0 — the bootstrap seed — exists
	// only in checkpoints, never in records) or when its position
	// predates the earliest record still retained (a checkpoint
	// truncated the history it needs). The file is read whole before
	// peeking the stamp — checkpoint writes swap the file atomically,
	// so the bytes are one consistent image.
	start := helloLSN
	welcome := append(message(msgWelcome, 1, p.epoch), 0)
	var snapshot []byte
	if earliest := l.StartLSN(); helloFresh || helloLSN < earliest {
		raw, rerr := os.ReadFile(server.CheckpointPath(p.srv.WALDir()))
		if rerr != nil {
			sendError(bw, fmt.Sprintf("snapshot unavailable: %v", rerr))
			return
		}
		snapLSN, perr := wal.PeekCheckpointLSN(bytes.NewReader(raw))
		if perr != nil {
			sendError(bw, fmt.Sprintf("snapshot unreadable: %v", perr))
			return
		}
		if snapLSN < earliest {
			sendError(bw, fmt.Sprintf("snapshot at LSN %d cannot bridge to earliest retained record %d", snapLSN, earliest))
			return
		}
		welcome[9] = 1
		snapshot = append(message(msgSnapshot, len(raw), snapLSN), raw...)
		if snapLSN > start {
			start = snapLSN
		}
	}
	if err := wal.WriteFrame(bw, welcome); err != nil {
		return
	}
	if snapshot != nil {
		if err := wal.WriteFrame(bw, snapshot); err != nil {
			return
		}
	}
	if err := bw.Flush(); err != nil {
		return
	}
	conn.SetDeadline(time.Time{})

	// Acks arrive on their own schedule; drain them off-thread so a
	// follower fsync never backpressures the record stream. A read
	// error here kicks the stream loop by closing the connection.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			t, body, err := readFrame(br)
			if err != nil {
				conn.Close()
				return
			}
			if t == msgAck {
				if lsn, err := readU64(body); err == nil {
					st.acked.Store(lsn)
				}
			}
		}
	}()

	p.stream(st, bw, start)
	conn.Close()
	<-ackDone
}

// stream feeds records from pos+1 through a log cursor, flushing when
// caught up and heartbeating while idle. It returns when the
// connection dies, the primary closes or is fenced, or the cursor
// fails (history truncated under it — the follower reconnects and
// re-bootstraps from the snapshot).
func (p *Primary) stream(st *followerConn, bw *bufio.Writer, pos uint64) {
	l := p.srv.WAL()
	cur := l.Cursor(pos)
	defer cur.Close()
	writeTimeout := 4 * p.cfg.Heartbeat
	if writeTimeout < 5*time.Second {
		writeTimeout = 5 * time.Second
	}
	for {
		if p.isClosed() {
			return
		}
		if p.srv.Fenced() {
			sendError(bw, "fenced: a newer primary epoch exists")
			return
		}
		lsn, payload, err := cur.Next()
		if err != nil {
			sendError(bw, fmt.Sprintf("stream: %v", err))
			return
		}
		if lsn == 0 {
			// Caught up: everything buffered goes out now, then wait
			// for new flushes, heartbeating on idle.
			st.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if err := bw.Flush(); err != nil {
				return
			}
			if l.WaitFlushed(pos, p.cfg.Heartbeat) > pos {
				continue
			}
			st.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if err := wal.WriteFrame(bw, message(msgHeartbeat, 0, l.Flushed())); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
			continue
		}
		st.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := wal.WriteFrame(bw, append(message(msgRecord, len(payload), lsn), payload...)); err != nil {
			return
		}
		pos = lsn
		st.streamed.Store(lsn)
	}
}
