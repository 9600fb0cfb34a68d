package replica

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"xixa/internal/server"
	"xixa/internal/wal"
	"xixa/internal/xindex"
)

// ErrPromoted reports an operation on a follower already promoted.
var ErrPromoted = errors.New("replica: follower already promoted")

// FollowerConfig configures StartFollower.
type FollowerConfig struct {
	// PrimaryAddr is the primary's replication listener.
	PrimaryAddr string
	// Dir is this follower's durability directory.
	Dir string
	// Server seeds the replica server's configuration (sync policy,
	// capacities). WALDir and Replica are overridden.
	Server server.Config
	// Dial, when set, replaces net.Dial — the fault-injection hook.
	Dial func(addr string) (net.Conn, error)
	// ReconnectBase/ReconnectMax bound the full-jitter exponential
	// backoff between reconnect attempts (defaults 50ms / 2s).
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// StaleAfter is how long the stream may stay silent before the
	// follower declares the connection dead and reconnects; it is also
	// the dial and handshake timeout (default 3s; keep it a few
	// multiples of the primary's heartbeat).
	StaleAfter time.Duration
	// AckEvery is how many records may apply between fsync+ack rounds
	// while the stream is busy (default 256); heartbeats force a round
	// when idle.
	AckEvery int
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.ReconnectBase <= 0 {
		c.ReconnectBase = 50 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 2 * time.Second
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 3 * time.Second
	}
	if c.AckEvery <= 0 {
		c.AckEvery = 256
	}
	if c.Dial == nil {
		stale := c.StaleAfter
		c.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, stale)
		}
	}
	return c
}

// backoff is the full-jitter exponential delay before reconnect
// attempt number attempt.
func (c FollowerConfig) backoff(attempt int) time.Duration {
	ceil := c.ReconnectBase << uint(min(attempt, 20))
	if ceil > c.ReconnectMax || ceil <= 0 {
		ceil = c.ReconnectMax
	}
	return time.Duration(rand.Int63n(int64(ceil))) + 1
}

// Follower is a replica node: a read-only server continuously fed by
// the primary's WAL stream, promotable to primary when the primary
// dies. A follower that falls behind a primary checkpoint re-bootstraps
// in place from the primary's snapshot, replacing its server (see
// Server).
type Follower struct {
	cfg FollowerConfig
	// srv is the server the follower owns now; a re-bootstrap swaps it.
	// applier feeds it and belongs to the stream loop (and to Promote,
	// once the loop has stopped).
	srv     atomic.Pointer[server.Server]
	applier *server.Applier

	epoch          atomic.Uint64
	applied        atomic.Uint64 // last LSN consumed
	primaryFlushed atomic.Uint64 // primary's flushed tip, from records + heartbeats
	lastContact    atomic.Int64  // unix nanos of the last frame received
	reconnects     atomic.Uint64
	connected      atomic.Bool
	promoted       atomic.Bool

	mu      sync.Mutex
	conn    net.Conn // live connection, closed by stopLoop to unblock reads
	lastErr error

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// FollowerInfo is a follower's replication position and health.
type FollowerInfo struct {
	// Epoch is the highest primary epoch witnessed.
	Epoch uint64
	// AppliedLSN is the last record consumed; DurableLSN the last
	// fsynced locally; PrimaryFlushedLSN the primary's tip as last
	// heard. LagRecords = PrimaryFlushedLSN - AppliedLSN (records still
	// waiting to apply); LagLSN = PrimaryFlushedLSN - DurableLSN (the
	// LSN distance to local durability, which also covers applied but
	// not-yet-fsynced records).
	AppliedLSN        uint64
	DurableLSN        uint64
	PrimaryFlushedLSN uint64
	LagRecords        uint64
	LagLSN            uint64
	// LastContact is when the stream last produced a frame; Connected
	// whether a stream is up right now; Reconnects how many connection
	// attempts have failed or streams ended, failed start attempts
	// included.
	LastContact time.Time
	Connected   bool
	Reconnects  uint64
	// Err is the most recent stream error (nil while healthy).
	Err error
}

// StartFollower opens (or resumes) a replica in cfg.Dir following the
// primary at cfg.PrimaryAddr. A follower with local state recovers it
// first. Then it connects once, as every reconnect does: if it is
// fresh, or the primary has checkpointed past its position, it adopts
// the primary's snapshot in place before streaming on. The returned
// follower owns its server: Close stops both, Promote upgrades the
// server in place.
//
// If the primary answers and refuses (fenced, diverged, a zombie
// epoch, or a snapshot this follower refuses), StartFollower returns
// that error. A follower with local state that cannot reach its
// primary serves reads on that state and keeps reconnecting with
// backoff; a follower must outlive its primary to be worth anything. A
// fresh follower (an empty Dir) has nothing to serve until it holds
// the primary's image, so StartFollower keeps connecting, with the same
// backoff, until it has a connection.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" || cfg.PrimaryAddr == "" {
		return nil, errors.New("replica: FollowerConfig requires Dir and PrimaryAddr")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	epoch, err := LoadEpoch(cfg.Dir)
	if err != nil {
		return nil, err
	}
	f := &Follower{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	f.epoch.Store(epoch)
	// Local state is a checkpoint or a log. A follower with neither is
	// fresh: its server comes from the primary's image, and nothing is
	// written to Dir before that image is adopted, so a fresh follower
	// stopped while waiting is still fresh.
	_, cerr := os.Stat(server.CheckpointPath(cfg.Dir))
	_, werr := os.Stat(server.WALPath(cfg.Dir))
	if !os.IsNotExist(cerr) || !os.IsNotExist(werr) {
		if err := f.open(); err != nil {
			return nil, err
		}
	}
	for attempt := 0; ; attempt++ {
		c, refused, err := f.connect()
		if refused {
			if srv := f.Server(); srv != nil {
				srv.Close()
			}
			return nil, err
		}
		if err != nil {
			f.lost(err)
		}
		if c != nil || f.Server() != nil {
			go f.loop(c)
			return f, nil
		}
		time.Sleep(cfg.backoff(attempt))
	}
}

// open recovers the follower's server from its directory and points
// the stream's applier, the index hook and the replication gauges at
// it: the one way a follower gets a server, at start and at each
// re-bootstrap.
func (f *Follower) open() error {
	scfg := f.cfg.Server
	scfg.WALDir = f.cfg.Dir
	scfg.Replica = true
	srv, _, err := server.Recover(scfg, nil)
	if err != nil {
		return err
	}
	last := srv.WAL().LastLSN()
	f.applied.Store(last)
	if last > f.primaryFlushed.Load() {
		f.primaryFlushed.Store(last)
	}
	f.applier = server.NewApplier(srv.DB(), srv.Catalog().Definitions(), last, srv.DB().Watermark())
	f.applier.SetIndexHook(func(create bool, def xindex.Definition) error {
		if create {
			_, err := srv.Manager().EnsureBuilt(def)
			return err
		}
		srv.Manager().DropDeferred(def)
		return nil
	})
	f.instrument(srv.Metrics())
	f.srv.Store(srv)
	return nil
}

// rebootstrap makes the snapshot the primary ships a fresh follower,
// or one that has fallen behind its checkpoint, the follower's state,
// and recovers a server from it in place of the old one, if any. The
// image is adopted before the old server closes, so a refused or
// failed adoption leaves the old server serving; a crash after
// adoption leaves a checkpoint ahead of the local log, which Recover
// already handles. Sessions of the old server fail with
// server.ErrClosed from here on, and their clients reconnect.
func (f *Follower) rebootstrap(snapshot []byte) error {
	if err := adoptSnapshot(f.cfg.Dir, snapshot); err != nil {
		return err
	}
	if old := f.Server(); old != nil {
		old.Close()
	}
	return f.open()
}

// adoptSnapshot makes a msgSnapshot body the follower's checkpoint,
// durably: Recover truncates the local log up to the image's stamp,
// so the image must survive a power loss before that happens. A frame
// whose LSN is not the image's own stamp is refused before anything is
// written.
func adoptSnapshot(dir string, body []byte) error {
	lsn, image, err := lsnPayload(body)
	if err != nil {
		return err
	}
	stamp, err := wal.PeekCheckpointLSN(bytes.NewReader(image))
	if err != nil {
		return fmt.Errorf("replica: shipped snapshot: %w", err)
	}
	if stamp != lsn {
		return fmt.Errorf("replica: snapshot frame at LSN %d carries an image stamped %d; refusing it", lsn, stamp)
	}
	return wal.WriteFileAtomic(server.CheckpointPath(dir), func(w io.Writer) error {
		_, err := w.Write(image)
		return err
	})
}

// Server returns the follower's current (read-only until promoted)
// server. A re-bootstrap closes it and swaps in a new one, so callers
// that serve clients fetch it per session rather than keep it.
func (f *Follower) Server() *server.Server { return f.srv.Load() }

// Info reports the follower's position and health.
func (f *Follower) Info() FollowerInfo {
	applied := f.applied.Load()
	tip := f.primaryFlushed.Load()
	durable := f.Server().WAL().DurableLSN()
	lag := uint64(0)
	if tip > applied {
		lag = tip - applied
	}
	lagLSN := uint64(0)
	if tip > durable {
		lagLSN = tip - durable
	}
	f.mu.Lock()
	err := f.lastErr
	f.mu.Unlock()
	return FollowerInfo{
		Epoch:             f.epoch.Load(),
		AppliedLSN:        applied,
		DurableLSN:        durable,
		PrimaryFlushedLSN: tip,
		LagRecords:        lag,
		LagLSN:            lagLSN,
		LastContact:       time.Unix(0, f.lastContact.Load()),
		Connected:         f.connected.Load(),
		Reconnects:        f.reconnects.Load(),
		Err:               err,
	}
}

// Promote upgrades the follower to primary: the stream stops, the
// commits the applier held back behind a stamp gap publish, a new
// epoch = maxWitnessed+1 is durably recorded, and the server opens for
// writes. Every streamed record is a whole commit, so the local log is
// a committed prefix of the dead primary's history as it stands.
// Returns the new epoch; a subsequent NewPrimary on this server
// presents it to fence any zombie.
func (f *Follower) Promote() (uint64, error) {
	if !f.promoted.CompareAndSwap(false, true) {
		return 0, ErrPromoted
	}
	f.stopLoop()
	// Commits parked behind a stamp gap (their lower-stamped sibling's
	// record died with the primary) must publish before the node opens
	// for writes; the gap commutes, so the flushed history is
	// consistent and the local log stays byte-identical.
	if err := f.applier.Flush(); err != nil {
		f.promoted.Store(false)
		return 0, err
	}
	epoch := f.epoch.Load() + 1
	if err := StoreEpoch(f.cfg.Dir, epoch); err != nil {
		return 0, err
	}
	f.epoch.Store(epoch)
	f.Server().Promote()
	return epoch, nil
}

// Close stops the stream and shuts the server down. After a Promote,
// Close only stops the (already stopped) stream machinery — the caller
// owns the now-primary server.
func (f *Follower) Close() {
	f.stopLoop()
	if !f.promoted.Load() {
		f.Server().Close()
	}
}

func (f *Follower) stopLoop() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.mu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	<-f.done
}

func (f *Follower) stopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// lost records a connection attempt that failed or a stream that
// ended.
func (f *Follower) lost(err error) {
	f.connected.Store(false)
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
	f.reconnects.Add(1)
}

// loop streams over c, the connection StartFollower made (nil when the
// primary was unreachable), then reconnects until the follower stops,
// with full-jitter exponential backoff that resets whenever a
// connection makes progress.
func (f *Follower) loop(c *link) {
	defer close(f.done)
	attempt := 0
	for {
		if c != nil {
			progressed, err := f.stream(c)
			if f.stopped() {
				return
			}
			f.lost(err)
			if progressed {
				attempt = 0
			}
		}
		select {
		case <-f.stop:
			return
		case <-time.After(f.cfg.backoff(attempt)):
		}
		attempt++
		var err error
		if c, _, err = f.connect(); err != nil && !f.stopped() {
			f.lost(err)
		}
	}
}

// link is a connection past its handshake; br may already hold the
// first streamed frames.
type link struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// connect dials the primary and runs the one handshake every
// connection runs. The hello carries the witnessed epoch, the local
// tip and the fresh byte, set while the follower has no server. A
// welcome from an older epoch is a zombie's and refused; a newer epoch
// is stored. A snapshot shipped after the welcome is adopted through
// rebootstrap; a fresh follower shipped none recovers empty. refused
// reports an error no retry mends: the primary answered and refused,
// or what it shipped was refused. Any other error is the network's.
func (f *Follower) connect() (c *link, refused bool, err error) {
	conn, err := f.cfg.Dial(f.cfg.PrimaryAddr)
	if err != nil {
		return nil, false, err
	}
	// Publish the connection and re-check stop under one mutex hold:
	// stopLoop interrupts a stream by closing f.conn, so a stop that
	// landed between loop's check and this dial would otherwise find
	// f.conn nil, close nothing, and leave this stream running forever.
	f.mu.Lock()
	f.conn = conn
	stopped := f.stopped()
	f.mu.Unlock()
	defer func() {
		if err != nil {
			f.release(conn)
		}
	}()
	if stopped {
		return nil, false, errors.New("replica: follower stopped")
	}
	c = &link{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	tip, fresh := uint64(0), byte(1)
	if srv := f.Server(); srv != nil {
		tip, fresh = srv.WAL().LastLSN(), 0
	}
	conn.SetDeadline(time.Now().Add(f.cfg.StaleAfter))
	if err := wal.WriteFrame(c.bw, append(message(msgHello, 1, f.epoch.Load(), tip), fresh)); err != nil {
		return nil, false, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, false, err
	}
	t, body, err := readFrame(c.br)
	if err != nil {
		return nil, false, err
	}
	if t == msgError {
		return nil, true, fmt.Errorf("replica: primary refused: %s", body)
	}
	if t != msgWelcome || len(body) != 9 {
		return nil, true, errors.New("replica: bad welcome frame")
	}
	wepoch, _ := readU64(body)
	if known := f.epoch.Load(); wepoch < known {
		return nil, true, fmt.Errorf("replica: zombie primary at epoch %d (witnessed %d)", wepoch, known)
	} else if wepoch > known {
		if err := StoreEpoch(f.cfg.Dir, wepoch); err != nil {
			return nil, true, err
		}
		f.epoch.Store(wepoch)
	}
	switch {
	case body[8] != 0:
		t, snap, err := readFrame(c.br)
		if err != nil {
			return nil, false, err
		}
		if t != msgSnapshot {
			return nil, true, fmt.Errorf("replica: %d frame where the snapshot belongs", t)
		}
		if err := f.rebootstrap(snap); err != nil {
			return nil, true, err
		}
	case fresh != 0:
		if err := f.open(); err != nil {
			return nil, true, err
		}
	}
	return c, false, nil
}

// release unpublishes and closes a connection.
func (f *Follower) release(conn net.Conn) {
	f.mu.Lock()
	f.conn = nil
	f.mu.Unlock()
	conn.Close()
}

// stream runs one connection to exhaustion: append-apply-ack until the
// stream breaks. progressed reports whether at least one record landed
// — the backoff-reset signal.
func (f *Follower) stream(c *link) (progressed bool, err error) {
	defer f.release(c.conn)
	conn, br, bw := c.conn, c.br, c.bw
	l := f.Server().WAL()
	f.connected.Store(true)
	f.lastContact.Store(time.Now().UnixNano())

	pending := 0
	syncAck := func() error {
		if err := l.Sync(); err != nil {
			return err
		}
		pending = 0
		conn.SetWriteDeadline(time.Now().Add(f.cfg.StaleAfter))
		if err := wal.WriteFrame(bw, message(msgAck, 0, l.DurableLSN())); err != nil {
			return err
		}
		return bw.Flush()
	}

	for {
		conn.SetReadDeadline(time.Now().Add(f.cfg.StaleAfter))
		t, body, rerr := readFrame(br)
		if rerr != nil {
			if pending > 0 {
				syncAck()
			}
			return progressed, rerr
		}
		f.lastContact.Store(time.Now().UnixNano())
		switch t {
		case msgRecord:
			lsn, payload, perr := lsnPayload(body)
			if perr != nil {
				return progressed, perr
			}
			last := l.LastLSN()
			if lsn <= last {
				continue // redelivery after reconnect; already have it
			}
			if lsn != last+1 {
				return progressed, fmt.Errorf("replica: stream gap: got LSN %d after %d", lsn, last)
			}
			if err := l.AppendRaw(lsn, payload); err != nil {
				return progressed, err
			}
			rec, derr := wal.DecodePayload(lsn, payload)
			if derr != nil {
				return progressed, derr
			}
			if err := f.applier.Apply(rec); err != nil {
				// An apply failure is data divergence, not a network
				// blip; surface it and stop consuming.
				return progressed, err
			}
			f.applied.Store(lsn)
			if lsn > f.primaryFlushed.Load() {
				f.primaryFlushed.Store(lsn)
			}
			progressed = true
			pending++
			if pending >= f.cfg.AckEvery {
				if err := syncAck(); err != nil {
					return progressed, err
				}
			}
		case msgHeartbeat:
			if tip, herr := readU64(body); herr == nil && tip > f.primaryFlushed.Load() {
				f.primaryFlushed.Store(tip)
			}
			if err := syncAck(); err != nil {
				return progressed, err
			}
		case msgError:
			return progressed, fmt.Errorf("replica: primary: %s", body)
		}
	}
}
