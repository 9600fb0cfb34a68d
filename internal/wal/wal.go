// Package wal implements the write-ahead log underneath the serving
// layer: an append-only, CRC-per-record, length-prefixed log with one
// record per committed write set (its inserts, replaces and deletes,
// with full node payloads) and one per index definition create or
// drop. Records enter it two ways: a local writer encodes its payloads
// (record.go's Encode helpers) and appends them with AppendTxn; a
// replication follower appends the primary's payloads verbatim with
// AppendRaw. Every LSN is therefore a commit boundary.
// A checkpoint image stamped with the log's LSN (image.go) plus the log
// tail past that LSN is a complete redo history, so a crashed server
// recovers every committed mutation by replaying the tail — see
// server.Recover. The image is written in the log's own frames and
// records, so this package holds every byte the server persists or
// ships, and DecodePayload is the one decoder of them.
//
// File format (little-endian):
//
//	header: magic "XIXAWAL2", uint64 startLSN, uint32 CRC-32C of both
//	record: uint32 payloadLen, uint32 CRC-32C(payload), payload
//
// Records carry no explicit LSN: the i-th record in the file (counting
// from zero) has LSN startLSN+i+1, and startLSN is rewritten by
// Truncate at each checkpoint. A torn final record — the expected
// wreckage of a crash mid-append — is detected on Open by its short
// frame or CRC mismatch; the file is truncated back to the last intact
// record and appends continue from there. Corruption earlier in the
// file is indistinguishable from a tear and handled the same way; the
// checkpoint bounds how much history a mid-file flip can shadow.
//
// The log is one file. A checkpoint's Truncate swaps in a fresh file
// whose header startLSN is the checkpoint's LSN, so the log holds only
// the records past the newest checkpoint; nothing older is kept.
//
// Group commit: appends only buffer; durability comes from Commit. Under
// SyncAlways, concurrent committers elect a leader that flushes the
// buffer and issues one fsync covering every record appended so far —
// concurrent transaction commits (which append under their tables'
// commit locks and wait for the fsync after releasing them) batch into
// one fsync, and commit throughput scales with the batch size instead
// of disk latency. SyncBatched commits flush to the OS (surviving a
// process crash) and leave fsync to a background ticker, bounding the
// power-loss window to batchedSyncDelay. SyncOff never syncs.
//
// A failed append, flush, or fsync poisons the log with a sticky error:
// every later append and commit is refused with it. Retrying an fsync
// after a failure would be the classic fsync-gate bug — the kernel may
// have dropped the dirty pages the first failure covered, so a later
// "successful" fsync proves nothing about them — so the log never
// un-poisons; the operator restarts and recovery re-scans what truly
// reached the disk.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"xixa/internal/obs"
)

var magic = []byte("XIXAWAL2")

const (
	headerLen = 8 + 8 + 4 // magic, startLSN, CRC
	frameLen  = 4 + 4     // payloadLen, payload CRC
	// maxRecordLen bounds a record frame so a corrupted length field
	// cannot demand an unbounded allocation.
	maxRecordLen = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: closed")

// ErrTruncated reports that a requested LSN has been truncated out of
// the log's readable history (checkpointed away).
var ErrTruncated = errors.New("wal: position truncated from history")

// SyncPolicy selects when commits reach stable storage.
type SyncPolicy uint8

const (
	// SyncAlways makes every Commit wait for an fsync that covers its
	// LSN, with concurrent committers grouped into one fsync.
	SyncAlways SyncPolicy = iota
	// SyncBatched flushes commits to the OS immediately (they survive a
	// process crash) and fsyncs in the background every
	// batchedSyncDelay (the power-loss window).
	SyncBatched
	// SyncOff never fsyncs; the OS flushes when it pleases.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatched:
		return "batched"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParseSyncPolicy parses the -sync flag spelling of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batched":
		return SyncBatched, nil
	case "off":
		return SyncOff, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown sync policy %q (want always, batched, or off)", s)
}

// Options tune a log.
type Options struct {
	Policy SyncPolicy
}

// batchedSyncDelay is the background fsync period under SyncBatched.
const batchedSyncDelay = 2 * time.Millisecond

// logFile is the slice of *os.File the log writes through. It is an
// interface so tests can inject failures (a Sync that returns an error
// exercises the sticky fsync gate).
type logFile interface {
	io.Reader
	io.Writer
	io.Seeker
	Sync() error
	Close() error
}

// Log is an append-only record log. It is safe for concurrent use.
type Log struct {
	path string
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond // wakes group-commit followers
	f       logFile
	w       *bufio.Writer
	start   uint64 // LSN before the file's first record (the header's startLSN)
	last    uint64 // LSN of the last appended record
	durable uint64 // LSN covered by the last fsync
	flushed uint64 // LSN flushed to the OS — the replication-visible tip
	size    int64  // file size including buffered bytes
	syncing bool   // a group-commit leader's fsync is in flight
	fail    error  // sticky: the log is unusable after an append/flush error
	closed  bool

	// sizeFull receives, without blocking the writer, after each append
	// that leaves size at least sizeLimit (NotifyAtSize); nil when no
	// one asked.
	sizeLimit int64
	sizeFull  chan struct{}

	flushCh   chan struct{} // closed and replaced whenever flushed advances
	flushStop chan struct{}
	flushDone chan struct{}

	// Metric handles (instrument.go); nil until InstrumentWith, and
	// nil-safe, so an uninstrumented log pays one branch per event.
	metAppends   *obs.Counter
	metFsyncs    *obs.Counter
	metFsyncHist *obs.Histogram
	metBatchHist *obs.Histogram
}

// OpenResult reports what Open found in an existing log.
type OpenResult struct {
	// Records are the intact records, in LSN order.
	Records []Record
	// Torn reports that a torn or corrupt tail was truncated away.
	Torn bool
	// TornLSN is the LSN the first lost record would have had (0 when
	// not torn).
	TornLSN uint64
}

// Open opens the log at path, creating it if absent, and scans every
// intact record for the caller to replay. A torn final record — or any
// corruption, which is indistinguishable — truncates the history back
// to the last intact record; appends continue after it. The returned
// log is positioned for appending.
func Open(path string, opts Options) (*Log, *OpenResult, error) {
	l := &Log{path: path, opts: opts}
	l.cond = sync.NewCond(&l.mu)
	res := &OpenResult{}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if st.Size() < headerLen {
		// Empty, or shorter than a header: a file this short can hold
		// no records, so it is provably an aborted creation (a crash
		// mid-writeHeader), not a log that lost data — start it fresh.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := writeHeader(f, 0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, nil, err
		}
		l.size = headerLen
	} else {
		start, recs, goodEnd, torn, err := scan(f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if torn {
			if err := f.Truncate(goodEnd); err != nil {
				f.Close()
				return nil, nil, err
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, nil, err
			}
			res.Torn = true
			res.TornLSN = start + uint64(len(recs)) + 1
		}
		if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		l.start = start
		l.last = start + uint64(len(recs))
		l.size = goodEnd
		res.Records = recs
	}
	l.durable = l.last
	l.flushed = l.last
	l.f = f
	l.w = bufio.NewWriter(f)
	if opts.Policy == SyncBatched {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flusher()
	}
	return l, res, nil
}

func writeHeader(f logFile, startLSN uint64) error {
	var buf [headerLen]byte
	copy(buf[:8], magic)
	binary.LittleEndian.PutUint64(buf[8:16], startLSN)
	binary.LittleEndian.PutUint32(buf[16:20], crc32.Checksum(buf[:16], crcTable))
	if _, err := f.Write(buf[:]); err != nil {
		return err
	}
	return f.Sync()
}

// readHeader reads and checks a log file's header and returns its
// startLSN. The earlier format (a commit of several operations framed
// by begin and commit records, last written before XIXAWAL2) is named
// as such.
func readHeader(r io.Reader) (uint64, error) {
	var head [headerLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, fmt.Errorf("wal: reading header: %w", err)
	}
	switch string(head[:8]) {
	case string(magic):
	case "XIXAWAL1":
		return 0, fmt.Errorf("wal: unsupported log version %q (this build reads only %q)", head[:8], magic)
	default:
		return 0, fmt.Errorf("wal: not a wal file (bad magic %q)", head[:8])
	}
	if crc32.Checksum(head[:16], crcTable) != binary.LittleEndian.Uint32(head[16:20]) {
		return 0, fmt.Errorf("wal: header checksum mismatch")
	}
	return binary.LittleEndian.Uint64(head[8:16]), nil
}

// scan reads the header and every record, stopping at the first torn or
// corrupt frame. goodEnd is the file offset just past the last intact
// record.
func scan(f io.ReadSeeker) (startLSN uint64, recs []Record, goodEnd int64, torn bool, err error) {
	if _, err = f.Seek(0, io.SeekStart); err != nil {
		return
	}
	r := bufio.NewReader(f)
	if startLSN, err = readHeader(r); err != nil {
		return
	}
	goodEnd = headerLen
	lsn := startLSN
	for {
		payload, rerr := ReadFrame(r, maxRecordLen)
		if rerr != nil {
			torn = rerr != io.EOF // a clean EOF at a record boundary is not a tear
			return
		}
		lsn++
		rec, derr := DecodePayload(lsn, payload)
		if derr != nil {
			// The frame checksum passed but the payload does not parse:
			// treat it like a tear so recovery keeps everything before it.
			torn = true
			return
		}
		recs = append(recs, rec)
		goodEnd += frameLen + int64(len(payload))
	}
}

// WriteFrame writes payload as one frame: [u32 len][u32 CRC-32C]
// [payload]. Log records, the records of an image and replication
// messages are framed alike.
func WriteFrame(w io.Writer, payload []byte) error {
	var frame [frameLen]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(frame[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame of at most limit payload bytes and returns
// its checksummed payload, freshly allocated. It returns io.EOF only
// when r ends cleanly at a frame boundary; a short frame, a bad length
// or a checksum mismatch is an error.
func ReadFrame(r io.Reader, limit uint32) ([]byte, error) {
	var frame [frameLen]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(frame[:4])
	if n == 0 || n > limit {
		return nil, fmt.Errorf("wal: bad frame length %d", n)
	}
	// Past 64 KiB the buffer doubles as the bytes arrive, so a corrupt
	// length holds at most twice what the stream delivered, not up to
	// limit, and a real payload is copied less than once in all.
	payload := make([]byte, min(n, 1<<16))
	_, err := io.ReadFull(r, payload)
	for err == nil && uint32(len(payload)) < n {
		grown := make([]byte, min(2*uint64(len(payload)), uint64(n)))
		copy(grown, payload)
		_, err = io.ReadFull(r, grown[len(payload):])
		payload = grown
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(frame[4:8]) {
		return nil, fmt.Errorf("wal: frame checksum mismatch")
	}
	return payload, nil
}

// appendLocked frames payload and buffers it. The caller holds l.mu and
// has checked closed/fail.
func (l *Log) appendLocked(payload []byte) error {
	if err := WriteFrame(l.w, payload); err != nil {
		l.fail = err
		return err
	}
	l.last++
	l.size += frameLen + int64(len(payload))
	l.metAppends.Inc()
	if l.sizeFull != nil && l.size >= l.sizeLimit {
		select {
		case l.sizeFull <- struct{}{}:
		default: // a signal is already waiting
		}
	}
	return nil
}

// AppendRaw appends a pre-framed payload received from a replication
// stream. lsn must be exactly LastLSN()+1 — the follower's dedup and
// gap detection happen by LSN before calling this, so the local log
// can never hold a hole or a duplicate.
func (l *Log) AppendRaw(lsn uint64, payload []byte) error {
	if len(payload) > maxRecordLen {
		return fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.fail != nil {
		return l.fail
	}
	if lsn != l.last+1 {
		return fmt.Errorf("wal: raw append at LSN %d but log is at %d", lsn, l.last)
	}
	return l.appendLocked(payload)
}

// AppendTxn is the local writer's one way into the log: it frames and
// buffers a batch of pre-encoded payloads (a commit's record, or a
// tuning round's index records) contiguously and returns the LSN of
// the batch's last record. Durability comes from a later Commit or
// Sync. A write failure poisons the log (l.fail), so a half-written
// record can never be followed by more; recovery's tail scan then
// drops the torn record, and with it the whole commit.
func (l *Log) AppendTxn(payloads [][]byte) (uint64, error) {
	for _, p := range payloads {
		if len(p) > maxRecordLen {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(p))
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.fail != nil {
		return 0, l.fail
	}
	for _, p := range payloads {
		if err := l.appendLocked(p); err != nil {
			return 0, err
		}
	}
	return l.last, nil
}

// Commit makes every record up to lsn durable per the log's policy:
// under SyncAlways it returns only once an fsync covers lsn, with
// concurrent commits grouped behind one leader's fsync; under
// SyncBatched and SyncOff it flushes to the OS and returns.
func (l *Log) Commit(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// A closed or failed log must fail the commit even when lsn is
	// already durable: the caller's mutation may not have reached the
	// log at all (its append was rejected), and claiming durability
	// would be silent data loss.
	if l.closed {
		return ErrClosed
	}
	if l.fail != nil {
		return l.fail
	}
	if l.opts.Policy != SyncAlways {
		return l.flushLocked()
	}
	for l.durable < lsn {
		if l.closed {
			return ErrClosed
		}
		if l.fail != nil {
			return l.fail
		}
		if l.syncing {
			// A leader's fsync is in flight; it may not cover our
			// records, so re-check after it completes.
			l.cond.Wait()
			continue
		}
		if err := l.leaderSyncLocked(); err != nil {
			return err
		}
	}
	return nil
}

// leaderSyncLocked flushes the buffer and fsyncs once, covering every
// record appended before the flush. Before flushing, the leader yields
// once with the lock released — a gather window that lets committers
// racing right behind it append their records, so one fsync covers the
// whole convoy instead of just the leader (measured: ~2x batching
// without the yield, ~6-8x with it, at 8 writers). The fsync itself
// also runs unlocked so appenders pile onto the next batch; followers
// wait on cond.
func (l *Log) leaderSyncLocked() error {
	l.syncing = true
	l.mu.Unlock()
	runtime.Gosched()
	l.mu.Lock()
	if err := l.flushLocked(); err != nil {
		l.syncing = false
		l.cond.Broadcast()
		return err
	}
	target := l.last
	durableBefore := l.durable
	f := l.f
	l.mu.Unlock()
	syncStart := time.Now()
	err := f.Sync()
	syncDur := time.Since(syncStart)
	l.mu.Lock()
	l.syncing = false
	if err != nil {
		l.fail = err
	} else {
		l.observeFsync(syncDur, durableBefore, target)
		if target > l.durable {
			l.durable = target
		}
	}
	l.cond.Broadcast()
	return err
}

func (l *Log) flushLocked() error {
	if l.fail != nil {
		return l.fail
	}
	if err := l.w.Flush(); err != nil {
		l.fail = err
		return err
	}
	l.advanceFlushedLocked(l.last)
	return nil
}

// advanceFlushedLocked publishes the new flushed tip to replication
// cursors and WaitFlushed waiters.
func (l *Log) advanceFlushedLocked(lsn uint64) {
	if lsn <= l.flushed {
		return
	}
	l.flushed = lsn
	if l.flushCh != nil {
		close(l.flushCh)
		l.flushCh = nil
	}
}

// Sync forces a flush and fsync regardless of policy — the
// per-statement sync a log without group commit would pay, and the
// barrier Truncate and Close use.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	target := l.last
	durableBefore := l.durable
	syncStart := time.Now()
	if err := l.f.Sync(); err != nil {
		l.fail = err
		return err
	}
	l.observeFsync(time.Since(syncStart), durableBefore, target)
	if target > l.durable {
		l.durable = target
	}
	return nil
}

// flusher is the SyncBatched background fsync loop.
func (l *Log) flusher() {
	defer close(l.flushDone)
	ticker := time.NewTicker(batchedSyncDelay)
	defer ticker.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-ticker.C:
			l.mu.Lock()
			if !l.closed && l.durable < l.last {
				l.syncLocked() // error is sticky; next Commit surfaces it
			}
			l.mu.Unlock()
		}
	}
}

// Truncate discards every record through upTo — which must be at
// least the last appended LSN, i.e. the caller has quiesced appenders
// — by atomically swapping in a fresh log whose startLSN is upTo.
// This is the checkpoint's log-reset step: the snapshot stamped upTo
// now owns all discarded history. An upTo beyond the last appended
// LSN additionally advances the sequence, so a log recreated after
// loss can never re-issue LSNs a checkpoint already covers (recovery
// uses this when the checkpoint outruns the log).
func (l *Log) Truncate(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// A group-commit leader may be fsyncing l.f with the lock
	// released; closing the file under it would fail that fsync and
	// poison the log with a sticky error. Wait it out.
	for l.syncing {
		l.cond.Wait()
		if l.closed {
			return ErrClosed
		}
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if upTo < l.last {
		return fmt.Errorf("wal: truncate at LSN %d but last appended is %d", upTo, l.last)
	}
	tmp := l.path + ".tmp"
	nf, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := writeHeader(nf, upTo); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	// The rename happened: the fresh file IS the log now, so adopt it
	// before anything else can fail — keeping the old (just-unlinked)
	// file would silently ack commits into an orphaned inode. If the
	// directory fsync below fails and power is then lost, the rename
	// may roll back and the old records reappear; every one of them is
	// <= the checkpoint's LSN, so replay skips them — still consistent.
	l.f.Close()
	l.f = nf
	l.w = bufio.NewWriter(nf)
	l.start = upTo
	l.last = upTo
	l.durable = upTo
	l.advanceFlushedLocked(upTo)
	l.size = headerLen
	return syncDir(filepath.Dir(l.path))
}

// LastLSN returns the LSN of the most recently appended record.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// StartLSN returns the LSN the log's history begins after: the log
// holds the records (StartLSN, LastLSN], and a cursor opened at
// StartLSN() streams all of them.
func (l *Log) StartLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.start
}

// DurableLSN returns the LSN covered by the last successful fsync.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Flushed returns the LSN of the last record flushed to the OS — the
// tip replication cursors may read up to. Records past it may still be
// sitting in the in-process buffer mid-append.
func (l *Log) Flushed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// WaitFlushed blocks until the flushed tip passes after (returning the
// new tip), the timeout elapses, or the log closes (returning the tip
// as of then).
func (l *Log) WaitFlushed(after uint64, timeout time.Duration) uint64 {
	deadline := time.Now().Add(timeout)
	l.mu.Lock()
	for l.flushed <= after && !l.closed {
		remain := time.Until(deadline)
		if remain <= 0 {
			break
		}
		if l.flushCh == nil {
			l.flushCh = make(chan struct{})
		}
		ch := l.flushCh
		l.mu.Unlock()
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
		l.mu.Lock()
	}
	tip := l.flushed
	l.mu.Unlock()
	return tip
}

// SizeBytes returns the log file's size including buffered bytes —
// the checkpoint trigger's input.
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// NotifyAtSize returns a channel that receives a value after each
// append that leaves the log at least n bytes long — the automatic
// checkpoint's trigger. The channel holds one value and the append
// never waits on it, so signals that arrive while one is pending
// coalesce. A later call replaces the threshold and the channel.
func (l *Log) NotifyAtSize(n int64) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sizeLimit, l.sizeFull = n, make(chan struct{}, 1)
	return l.sizeFull
}

// Close flushes, fsyncs, and closes the log. Waiting committers are
// woken with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	if l.flushStop != nil {
		close(l.flushStop)
	}
	l.mu.Unlock()
	if l.flushDone != nil {
		<-l.flushDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Same hazard as Truncate: a group-commit leader may be fsyncing
	// l.f with the lock released, and closing the file under it would
	// fail a commit whose records are durable. Wait it out.
	for l.syncing {
		l.cond.Wait()
	}
	if l.closed { // a concurrent Close won the race while we waited
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	l.cond.Broadcast()
	if l.flushCh != nil {
		close(l.flushCh)
		l.flushCh = nil
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
