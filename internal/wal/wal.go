// Package wal implements the write-ahead log underneath the serving
// layer: an append-only, CRC-per-record, length-prefixed log of
// committed write sets (document insert, remove, and atomic replace
// with the full node payload, framed when a commit holds several) and
// index definition creates and drops. Records enter it two ways: a
// local writer pre-encodes its payloads (record.go's Encode helpers)
// and appends the batch with AppendTxn; a replication follower appends
// the primary's payloads verbatim with AppendRaw.
// A snapshot stamped with the log's LSN (persist's checkpoint format)
// plus the log tail past that LSN is a complete redo history, so a
// crashed server recovers every committed mutation by replaying the
// tail — see server.Recover.
//
// File format (little-endian):
//
//	header: magic "XIXAWAL1", uint64 startLSN, uint32 CRC-32C of both
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
// Segments: with Options.SegmentBytes set, the log rolls the active
// file once it outgrows the threshold — the active file is flushed,
// fsynced, and renamed to "<path>.seg-<start>-<end>" (20-digit LSNs,
// records covering (start, end]), and a fresh active file whose header
// startLSN is the sealed end continues the sequence. Open replays the
// sealed chain oldest-first before the active tail, so segmentation is
// invisible to recovery. Truncate removes sealed segments — or, with
// Options.ArchiveDir set, moves them (and a final seal of the active
// file) into the archive, where they remain readable for replication
// catch-up and point-in-time restore.
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
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xixa/internal/obs"
	"xixa/internal/persist"
)

var magic = []byte("XIXAWAL1")

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
// the log's readable history (checkpointed away with no archive).
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
	// SegmentBytes rolls the active file into a sealed segment once it
	// grows past this size (0 = never roll; the log stays one file).
	SegmentBytes int64
	// ArchiveDir, when set, receives sealed segments at Truncate time
	// instead of deleting them, keeping the full record history
	// readable for replication catch-up and point-in-time restore. It
	// must live on the same filesystem as the log.
	ArchiveDir string
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
	Truncate(size int64) error
}

// segMeta locates one sealed or archived segment file; its records
// cover (start, end].
type segMeta struct {
	path       string
	start, end uint64
	size       int64
}

// Log is an append-only record log. It is safe for concurrent use.
type Log struct {
	path string
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond // wakes group-commit followers
	f        logFile
	w        *bufio.Writer
	segs     []segMeta // sealed segments in the log's directory, oldest first
	archived []segMeta // segments moved to ArchiveDir, oldest first
	start    uint64    // LSN before the oldest record in the log's directory
	segStart uint64    // LSN before the active file's first record
	last     uint64    // LSN of the last appended record
	durable  uint64    // LSN covered by the last fsync
	flushed  uint64    // LSN flushed to the OS — the replication-visible tip
	size     int64     // active file size including buffered bytes
	sealed   int64     // total bytes across sealed (non-archived) segments
	syncing  bool      // a group-commit leader's fsync is in flight
	fail     error     // sticky: the log is unusable after an append/flush error
	closed   bool

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
	// Records are the intact records, in LSN order, across every sealed
	// segment and the active file.
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
// to the last intact record; appends continue after it. Corruption
// inside a sealed segment (bitrot; seals are fsynced) tears history at
// that point: the damaged segment is re-adopted as the active file and
// trimmed, and every later segment is removed. The returned log is
// positioned for appending.
func Open(path string, opts Options) (*Log, *OpenResult, error) {
	l := &Log{path: path, opts: opts}
	l.cond = sync.NewCond(&l.mu)
	res := &OpenResult{}

	if opts.ArchiveDir != "" {
		if err := os.MkdirAll(opts.ArchiveDir, 0o755); err != nil {
			return nil, nil, err
		}
		archived, err := listSegments(opts.ArchiveDir, filepath.Base(path))
		if err != nil {
			return nil, nil, err
		}
		l.archived = archived
	}
	segs, err := listSegments(filepath.Dir(path), filepath.Base(path))
	if err != nil {
		return nil, nil, err
	}

	// Replay the sealed chain oldest-first. A segment that does not
	// chain onto its predecessor, or whose contents tear short of its
	// sealed end, truncates history there: later segments and the
	// active file cannot be trusted (their LSNs would no longer be
	// contiguous with what survives) and are removed.
	var recs []Record
	prevEnd := uint64(0)
	repaired := false
	for i, sm := range segs {
		if i == 0 {
			prevEnd = sm.start
		}
		tearAt := func(lost uint64, adopt bool) error {
			repaired = true
			res.Torn = true
			res.TornLSN = lost
			for _, later := range segs[i+1:] {
				if err := os.Remove(later.path); err != nil {
					return err
				}
			}
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return err
			}
			if adopt {
				// The damaged segment becomes the active file; the
				// active-file scan below trims its tail.
				return os.Rename(sm.path, path)
			}
			return os.Remove(sm.path)
		}
		if sm.start != prevEnd {
			// A hole in the chain: everything from prevEnd on is gone.
			if err := tearAt(prevEnd+1, false); err != nil {
				return nil, nil, err
			}
			break
		}
		hstart, srecs, _, torn, serr := readSegmentFile(sm.path)
		if serr != nil {
			return nil, nil, fmt.Errorf("wal: segment %s: %w", sm.path, serr)
		}
		if hstart != sm.start {
			return nil, nil, fmt.Errorf("wal: segment %s: header startLSN %d does not match name", sm.path, hstart)
		}
		if torn || sm.start+uint64(len(srecs)) != sm.end {
			if err := tearAt(sm.start+uint64(len(srecs))+1, true); err != nil {
				return nil, nil, err
			}
			break
		}
		recs = append(recs, srecs...)
		l.segs = append(l.segs, sm)
		l.sealed += sm.size
		prevEnd = sm.end
	}
	if repaired {
		if err := persist.SyncDir(filepath.Dir(path)); err != nil {
			return nil, nil, err
		}
	}
	baseLSN := uint64(0)
	if n := len(l.segs); n > 0 {
		baseLSN = l.segs[n-1].end
	}

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
		// mid-writeHeader or mid-roll), not a log that lost data —
		// start it fresh, continuing the sealed chain's sequence.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := writeHeader(f, baseLSN); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := persist.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, nil, err
		}
		l.segStart = baseLSN
		l.last = baseLSN
		l.size = headerLen
	} else {
		start, arecs, goodEnd, torn, err := scan(f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if len(l.segs) > 0 && start != baseLSN {
			f.Close()
			return nil, nil, fmt.Errorf("wal: active log startLSN %d does not chain to sealed segments ending at %d", start, baseLSN)
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
			if !res.Torn {
				res.Torn = true
				res.TornLSN = start + uint64(len(arecs)) + 1
			}
		}
		if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		l.segStart = start
		l.last = start + uint64(len(arecs))
		l.size = goodEnd
		recs = append(recs, arecs...)
	}
	l.start = l.segStart
	if len(l.segs) > 0 {
		l.start = l.segs[0].start
	}
	l.durable = l.last
	l.flushed = l.last
	res.Records = recs
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

// sealName is the file name of a sealed segment whose records cover
// (start, end]. The 20-digit zero-padded LSNs keep lexical order equal
// to LSN order.
func sealName(path string, start, end uint64) string {
	return fmt.Sprintf("%s.seg-%020d-%020d", path, start, end)
}

// listSegments finds the sealed segment files for the log named base
// inside dir, sorted oldest-first.
func listSegments(dir, base string) ([]segMeta, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	prefix := base + ".seg-"
	var segs []segMeta
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) {
			continue
		}
		rest := name[len(prefix):]
		dash := strings.IndexByte(rest, '-')
		if dash < 0 {
			continue
		}
		start, err1 := strconv.ParseUint(rest[:dash], 10, 64)
		end, err2 := strconv.ParseUint(rest[dash+1:], 10, 64)
		if err1 != nil || err2 != nil || end <= start {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, segMeta{path: filepath.Join(dir, name), start: start, end: end, size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

// readSegmentFile scans one segment (or log) file read-only.
func readSegmentFile(path string) (startLSN uint64, recs []Record, goodEnd int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, 0, false, err
	}
	defer f.Close()
	return scan(f)
}

// scan reads the header and every record, stopping at the first torn or
// corrupt frame. goodEnd is the file offset just past the last intact
// record.
func scan(f io.ReadSeeker) (startLSN uint64, recs []Record, goodEnd int64, torn bool, err error) {
	if _, err = f.Seek(0, io.SeekStart); err != nil {
		return
	}
	r := bufio.NewReader(f)
	var head [headerLen]byte
	if _, err = io.ReadFull(r, head[:]); err != nil {
		err = fmt.Errorf("wal: reading header: %w", err)
		return
	}
	if string(head[:8]) != string(magic) {
		err = fmt.Errorf("wal: not a wal file (bad magic %q)", head[:8])
		return
	}
	if crc32.Checksum(head[:16], crcTable) != binary.LittleEndian.Uint32(head[16:20]) {
		err = fmt.Errorf("wal: header checksum mismatch")
		return
	}
	startLSN = binary.LittleEndian.Uint64(head[8:16])
	goodEnd = headerLen
	lsn := startLSN
	var frame [frameLen]byte
	var payload []byte
	for {
		if _, rerr := io.ReadFull(r, frame[:]); rerr != nil {
			torn = rerr != io.EOF // a clean EOF at a record boundary is not a tear
			return
		}
		n := binary.LittleEndian.Uint32(frame[:4])
		want := binary.LittleEndian.Uint32(frame[4:8])
		if n == 0 || n > maxRecordLen {
			torn = true
			return
		}
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, rerr := io.ReadFull(r, payload); rerr != nil {
			torn = true
			return
		}
		if crc32.Checksum(payload, crcTable) != want {
			torn = true
			return
		}
		lsn++
		rec, derr := decodeRecord(lsn, payload)
		if derr != nil {
			// The frame checksum passed but the payload does not parse:
			// treat it like a tear so recovery keeps everything before it.
			torn = true
			return
		}
		recs = append(recs, rec)
		goodEnd += frameLen + int64(n)
	}
}

// appendLocked frames payload and buffers it. The caller holds l.mu and
// has checked closed/fail.
func (l *Log) appendLocked(payload []byte) error {
	var frame [frameLen]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	if _, err := l.w.Write(frame[:]); err != nil {
		l.fail = err
		return err
	}
	if _, err := l.w.Write(payload); err != nil {
		l.fail = err
		return err
	}
	l.last++
	l.size += frameLen + int64(len(payload))
	l.metAppends.Inc()
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
	if err := l.appendLocked(payload); err != nil {
		return err
	}
	return l.maybeRollLocked()
}

// AppendTxn is the local writer's one way into the log: it frames and
// buffers a batch of pre-encoded payloads (a commit's write set, or a
// tuning round's index records) contiguously — no other writer's
// records can interleave with the batch — and returns the LSN of the
// batch's last record. Durability comes from a later Commit or Sync. A write failure poisons
// the log (l.fail), so a half-written batch can never be followed by
// more records; recovery's tail-scan then drops the torn frame and the
// transaction framing discards the unterminated transaction. The log
// may roll a segment between two of the batch's records — a frame
// spanning a segment boundary replays fine, since Open concatenates
// the chain before the framing pass.
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
		if err := l.maybeRollLocked(); err != nil {
			return 0, err
		}
	}
	return l.last, nil
}

// maybeRollLocked seals the active file into a segment and starts a
// fresh one when it has outgrown SegmentBytes. Rolling is skipped while
// a group-commit leader's fsync is in flight: waiting on the condition
// variable would release l.mu mid-AppendTxn and let another writer
// interleave records inside the transaction frame, so the roll stays
// opportunistic and the next append retries it.
func (l *Log) maybeRollLocked() error {
	if l.opts.SegmentBytes <= 0 || l.size < l.opts.SegmentBytes || l.syncing || l.last == l.segStart {
		return nil
	}
	return l.rollLocked()
}

func (l *Log) rollLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.fail = err
		return err
	}
	if l.last > l.durable {
		l.durable = l.last
	}
	sm := segMeta{path: sealName(l.path, l.segStart, l.last), start: l.segStart, end: l.last, size: l.size}
	if err := l.f.Close(); err != nil {
		l.fail = err
		return err
	}
	if err := os.Rename(l.path, sm.path); err != nil {
		l.fail = err
		return err
	}
	nf, err := os.OpenFile(l.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		l.fail = err
		return err
	}
	if err := writeHeader(nf, l.last); err != nil {
		nf.Close()
		l.fail = err
		return err
	}
	if err := persist.SyncDir(filepath.Dir(l.path)); err != nil {
		nf.Close()
		l.fail = err
		return err
	}
	l.segs = append(l.segs, sm)
	l.sealed += sm.size
	l.f = nf
	l.w = bufio.NewWriter(nf)
	l.segStart = l.last
	l.size = headerLen
	return nil
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
//
// With ArchiveDir set, nothing is discarded: the active file is sealed
// and every sealed segment moves into the archive, where cursors and
// RestoreToLSN keep reading it.
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
	archiving := l.opts.ArchiveDir != ""
	if archiving && l.last > l.segStart {
		// Seal the active records so the archive keeps them; the seal
		// must be durable before the fresh file takes over.
		if err := l.syncLocked(); err != nil {
			return err
		}
		sm := segMeta{path: sealName(l.path, l.segStart, l.last), start: l.segStart, end: l.last, size: l.size}
		if err := l.f.Close(); err != nil {
			l.fail = err
			return err
		}
		if err := os.Rename(l.path, sm.path); err != nil {
			l.fail = err
			return err
		}
		l.segs = append(l.segs, sm)
		l.sealed += sm.size
		l.f = nil
	}
	tmp := l.path + ".tmp"
	nf, err := os.Create(tmp)
	if err != nil {
		if l.f == nil {
			l.fail = err
		}
		return err
	}
	if err := writeHeader(nf, upTo); err != nil {
		nf.Close()
		os.Remove(tmp)
		if l.f == nil {
			l.fail = err
		}
		return err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		nf.Close()
		os.Remove(tmp)
		if l.f == nil {
			l.fail = err
		}
		return err
	}
	// The rename happened: the fresh file IS the log now, so adopt it
	// before anything else can fail — keeping the old (just-unlinked)
	// file would silently ack commits into an orphaned inode. If the
	// directory fsync below fails and power is then lost, the rename
	// may roll back and the old records reappear; every one of them is
	// <= the checkpoint's LSN, so replay skips them — still consistent.
	if l.f != nil {
		l.f.Close()
	}
	l.f = nf
	l.w = bufio.NewWriter(nf)
	// Sealed segments leave the log's directory: into the archive when
	// configured, otherwise gone for good.
	for _, sm := range l.segs {
		if archiving {
			dst := filepath.Join(l.opts.ArchiveDir, filepath.Base(sm.path))
			if err := os.Rename(sm.path, dst); err != nil {
				return err
			}
			l.archived = append(l.archived, segMeta{path: dst, start: sm.start, end: sm.end, size: sm.size})
		} else if err := os.Remove(sm.path); err != nil {
			return err
		}
	}
	l.segs = nil
	l.sealed = 0
	l.start = upTo
	l.segStart = upTo
	l.last = upTo
	l.durable = upTo
	l.advanceFlushedLocked(upTo)
	l.size = headerLen
	if err := persist.SyncDir(filepath.Dir(l.path)); err != nil {
		return err
	}
	if archiving {
		return persist.SyncDir(l.opts.ArchiveDir)
	}
	return nil
}

// TruncateTail physically removes every record after toLSN — the
// promotion step that drops a dead primary's unterminated transaction
// frame, and recovery's cleanup of a dangling frame before new commits
// append after it. toLSN must not reach into archived history. The
// caller has quiesced appenders.
func (l *Log) TruncateTail(toLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.fail != nil {
		return l.fail
	}
	for l.syncing {
		l.cond.Wait()
		if l.closed {
			return ErrClosed
		}
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if toLSN >= l.last {
		return nil
	}
	if toLSN < l.start {
		return fmt.Errorf("wal: truncate tail to LSN %d but history starts after %d", toLSN, l.start)
	}
	// Unwind whole segments first: drop the active file and re-adopt
	// the newest sealed segment as active until toLSN lands inside it.
	for toLSN < l.segStart {
		sm := l.segs[len(l.segs)-1]
		if err := l.f.Close(); err != nil {
			l.fail = err
			return err
		}
		if err := os.Remove(l.path); err != nil {
			l.fail = err
			return err
		}
		if err := os.Rename(sm.path, l.path); err != nil {
			l.fail = err
			return err
		}
		f, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
		if err != nil {
			l.fail = err
			return err
		}
		l.segs = l.segs[:len(l.segs)-1]
		l.sealed -= sm.size
		l.segStart = sm.start
		l.last = sm.end
		l.size = sm.size
		l.f = f
		l.w = bufio.NewWriter(f)
	}
	// Drop the active file's tail past toLSN: walk the frames to the
	// byte offset just past record toLSN, then cut there.
	off, err := l.tailOffsetLocked(toLSN)
	if err != nil {
		l.fail = err
		return err
	}
	if err := l.f.Truncate(off); err != nil {
		l.fail = err
		return err
	}
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		l.fail = err
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.fail = err
		return err
	}
	l.w = bufio.NewWriter(l.f)
	l.last = toLSN
	l.durable = toLSN
	l.flushed = toLSN
	l.size = off
	return persist.SyncDir(filepath.Dir(l.path))
}

// tailOffsetLocked walks the active file's frames and returns the byte
// offset just past record toLSN. The buffer is flushed; the file
// offset is left wherever the walk stopped (the caller reseeks).
func (l *Log) tailOffsetLocked(toLSN uint64) (int64, error) {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReader(l.f)
	if _, err := io.CopyN(io.Discard, r, headerLen); err != nil {
		return 0, err
	}
	off := int64(headerLen)
	var frame [frameLen]byte
	for lsn := l.segStart; lsn < toLSN; lsn++ {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			return 0, fmt.Errorf("wal: truncate tail walk at LSN %d: %w", lsn+1, err)
		}
		n := binary.LittleEndian.Uint32(frame[:4])
		if n == 0 || n > maxRecordLen {
			return 0, fmt.Errorf("wal: truncate tail walk at LSN %d: bad frame length %d", lsn+1, n)
		}
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			return 0, fmt.Errorf("wal: truncate tail walk at LSN %d: %w", lsn+1, err)
		}
		off += frameLen + int64(n)
	}
	return off, nil
}

// LastLSN returns the LSN of the most recently appended record.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// StartLSN returns the LSN the log's live (non-archived) history
// begins after: records under the log's directory cover
// (StartLSN, LastLSN].
func (l *Log) StartLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.start
}

// EarliestLSN returns the LSN before the oldest record still readable
// through the log, counting archived segments — a cursor opened at
// EarliestLSN() can stream everything the log retains.
func (l *Log) EarliestLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.archived) > 0 {
		return l.archived[0].start
	}
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

// SizeBytes returns the log's size — sealed segments plus the active
// file, including buffered bytes — the checkpoint trigger's input.
// Archived segments do not count: they are the checkpoint's output,
// not its backlog.
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealed + l.size
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// ArchiveDir returns the configured archive directory ("" when
// archiving is off).
func (l *Log) ArchiveDir() string { return l.opts.ArchiveDir }

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
