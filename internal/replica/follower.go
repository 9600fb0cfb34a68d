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
	// whether a stream is up right now; Reconnects how many times the
	// stream has been re-established.
	LastContact time.Time
	Connected   bool
	Reconnects  uint64
	// Err is the most recent stream error (nil while healthy).
	Err error
}

// StartFollower opens (or resumes) a replica in cfg.Dir following the
// primary at cfg.PrimaryAddr. If the local position predates the
// primary's retained history, the primary's checkpoint is adopted
// before recovery (snapshot bootstrap); a follower that falls behind a
// checkpoint later adopts it the same way without a restart. The
// returned follower owns its server: Close stops both, Promote
// upgrades the server in place.
//
// A follower with local state that cannot reach its primary at start
// recovers that state, serves reads, and keeps reconnecting with
// backoff; a follower must outlive its primary to be worth anything. A
// fresh follower (an empty Dir) has nothing to serve until it holds the
// primary's image, so StartFollower keeps asking for it, with the same
// backoff, until the primary answers.
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
	if err := bootstrapSnapshot(cfg, epoch); err != nil {
		return nil, err
	}
	f := &Follower{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	f.epoch.Store(epoch)
	if err := f.open(); err != nil {
		return nil, err
	}
	go f.loop()
	return f, nil
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

// rebootstrap replaces the follower's server with one recovered from
// the snapshot the primary ships when this follower has fallen behind
// its checkpoint. The image is adopted before the old server closes, so
// a refused or failed adoption leaves the old server serving; a crash
// after adoption leaves a checkpoint ahead of the local log, which
// Recover already handles. Sessions of the old server fail with
// server.ErrClosed from here on, and their clients reconnect.
func (f *Follower) rebootstrap(snapshot []byte) error {
	if err := adoptSnapshot(f.cfg.Dir, snapshot); err != nil {
		return err
	}
	f.Server().Close()
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

// bootstrapSnapshot is the pre-recovery handshake: peek the local WAL
// position, ask the primary whether that position still chains onto
// its retained history, and if not adopt the primary's checkpoint.
// The adopted checkpoint lands as the local checkpoint file; Recover's
// existing checkpoint-outruns-log path then advances the log past the
// stamp, so the stream resumes exactly at the snapshot boundary.
//
// A fresh follower asks until the primary answers: recovering without
// the image would leave it an empty checkpoint at LSN 0, after which it
// is no longer fresh, and the stream from LSN 1 would skip the seed the
// image holds. Nothing is written to Dir before the image is adopted,
// so a fresh follower stopped while waiting is still fresh.
func bootstrapSnapshot(cfg FollowerConfig, epoch uint64) error {
	lastLSN := uint64(0)
	walPath := server.WALPath(cfg.Dir)
	_, serr := os.Stat(walPath)
	hasWAL := serr == nil
	if hasWAL {
		l, _, oerr := wal.Open(walPath, wal.Options{Policy: wal.SyncOff})
		if oerr != nil {
			return oerr
		}
		lastLSN = l.LastLSN()
		l.Close()
	}
	// Fresh means no durable state at all: a node that has never held
	// a checkpoint cannot reconstruct the primary's bootstrap image
	// (which predates LSN 1) from records, so it must ask for one.
	fresh := byte(0)
	if _, serr := os.Stat(server.CheckpointPath(cfg.Dir)); os.IsNotExist(serr) && !hasWAL {
		fresh = 1
	}
	for attempt := 0; ; attempt++ {
		reached, err := handshake(cfg, epoch, lastLSN, fresh)
		if reached || fresh == 0 {
			return err // unreached with local state: recover it, reconnect later
		}
		time.Sleep(cfg.backoff(attempt))
	}
}

// handshake runs one bootstrap hello against the primary and adopts
// the snapshot it ships, if any. reached reports whether the primary
// answered the hello at all.
func handshake(cfg FollowerConfig, epoch, lastLSN uint64, fresh byte) (reached bool, err error) {
	conn, err := cfg.Dial(cfg.PrimaryAddr)
	if err != nil {
		return false, nil
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(cfg.StaleAfter))
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, msgHello, append(u64Pair(epoch, lastLSN), fresh)); err != nil {
		return false, nil
	}
	if err := bw.Flush(); err != nil {
		return false, nil
	}
	t, body, err := readFrame(br)
	if err != nil {
		return false, nil
	}
	switch t {
	case msgError:
		return true, fmt.Errorf("replica: primary refused bootstrap: %s", body)
	case msgWelcome:
	default:
		return true, fmt.Errorf("replica: unexpected %d frame in bootstrap handshake", t)
	}
	if len(body) < 9 {
		return true, errors.New("replica: short welcome frame")
	}
	wepoch, _ := readU64(body)
	if wepoch > epoch {
		if err := StoreEpoch(cfg.Dir, wepoch); err != nil {
			return true, err
		}
	}
	if body[8] == 0 {
		return true, nil // position chains; no snapshot needed
	}
	t, body, err = readFrame(br)
	if err != nil || t != msgSnapshot {
		return true, fmt.Errorf("replica: snapshot frame missing after welcome (err %v)", err)
	}
	return true, adoptSnapshot(cfg.Dir, body)
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

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// loop reconnects forever with full-jitter exponential backoff,
// resetting the backoff whenever a connection makes progress.
func (f *Follower) loop() {
	defer close(f.done)
	attempt := 0
	for {
		if f.stopped() {
			return
		}
		progressed, err := f.streamOnce()
		if f.stopped() {
			return
		}
		f.connected.Store(false)
		f.setErr(err)
		f.reconnects.Add(1)
		if progressed {
			attempt = 0
		} else {
			attempt++
		}
		select {
		case <-f.stop:
			return
		case <-time.After(f.cfg.backoff(attempt)):
		}
	}
}

// streamOnce runs one connection to exhaustion: handshake from the
// local log's tip, then append-apply-ack until the stream breaks.
// progressed reports whether at least one record landed — the
// backoff-reset signal.
func (f *Follower) streamOnce() (progressed bool, err error) {
	conn, err := f.cfg.Dial(f.cfg.PrimaryAddr)
	if err != nil {
		return false, err
	}
	// Publish the connection and re-check stop under one mutex hold:
	// stopLoop interrupts a stream by closing f.conn, so a stop that
	// landed between loop's check and this dial would otherwise find
	// f.conn nil, close nothing, and leave this stream running forever.
	f.mu.Lock()
	f.conn = conn
	stopped := f.stopped()
	f.mu.Unlock()
	if stopped {
		conn.Close()
		return false, errors.New("replica: follower stopped")
	}
	defer func() {
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
		conn.Close()
	}()

	l := f.Server().WAL()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	conn.SetDeadline(time.Now().Add(f.cfg.StaleAfter))
	if err := writeFrame(bw, msgHello, u64Pair(f.epoch.Load(), l.LastLSN())); err != nil {
		return false, err
	}
	if err := bw.Flush(); err != nil {
		return false, err
	}
	t, body, err := readFrame(br)
	if err != nil {
		return false, err
	}
	if t == msgError {
		return false, fmt.Errorf("replica: primary refused: %s", body)
	}
	if t != msgWelcome || len(body) < 9 {
		return false, fmt.Errorf("replica: bad welcome frame")
	}
	wepoch, _ := readU64(body)
	known := f.epoch.Load()
	if wepoch < known {
		return false, fmt.Errorf("replica: zombie primary at epoch %d (witnessed %d)", wepoch, known)
	}
	if wepoch > known {
		if err := StoreEpoch(f.cfg.Dir, wepoch); err != nil {
			return false, err
		}
		f.epoch.Store(wepoch)
	}
	if body[8] != 0 {
		// The primary checkpointed past our history: adopt the snapshot
		// that follows, then stream on from its stamp with the server
		// recovered from it.
		t, snap, err := readFrame(br)
		if err != nil {
			return false, err
		}
		if t != msgSnapshot {
			return false, fmt.Errorf("replica: %d frame where the snapshot belongs", t)
		}
		if err := f.rebootstrap(snap); err != nil {
			return false, err
		}
		l = f.Server().WAL()
	}
	f.connected.Store(true)
	f.lastContact.Store(time.Now().UnixNano())

	pending := 0
	syncAck := func() error {
		if err := l.Sync(); err != nil {
			return err
		}
		pending = 0
		conn.SetWriteDeadline(time.Now().Add(f.cfg.StaleAfter))
		if err := writeFrame(bw, msgAck, u64Body(l.DurableLSN())); err != nil {
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
				// blip; surface loudly and stop consuming.
				f.setErr(err)
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
