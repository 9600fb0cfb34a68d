package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smallSeg rolls after every few doc-remove records.
const smallSeg = 256

func countSegFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.Contains(e.Name(), ".seg-") {
			n++
		}
	}
	return n
}

func TestSegmentRollAndReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff, SegmentBytes: smallSeg})
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := appendDocRemove(l, "SECURITY", int64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(uint64(n)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := countSegFiles(t, dir); got < 2 {
		t.Fatalf("expected multiple sealed segments, found %d", got)
	}

	l2, res := openTestLog(t, path, Options{Policy: SyncOff, SegmentBytes: smallSeg})
	if res.Torn {
		t.Fatal("clean segmented log reported torn")
	}
	if len(res.Records) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(res.Records), n)
	}
	for i, rec := range res.Records {
		if rec.LSN != uint64(i+1) || rec.DocID != int64(i) {
			t.Fatalf("record %d = LSN %d DocID %d, want contiguous replay", i, rec.LSN, rec.DocID)
		}
	}
	// Appends continue the sequence across the reopen.
	lsn, err := appendDocRemove(l2, "SECURITY", 999, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != n+1 {
		t.Fatalf("post-reopen LSN = %d, want %d", lsn, n+1)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTxnFrameSpansSegmentBoundary forces a roll in the middle of an
// AppendTxn batch: the frame's records land in two different files but
// must replay as one intact transaction.
func TestTxnFrameSpansSegmentBoundary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff, SegmentBytes: smallSeg})

	var batch [][]byte
	batch = append(batch, EncodeTxnBegin(7))
	const ops = 40 // plenty of bytes to cross smallSeg at least once
	for i := 0; i < ops; i++ {
		batch = append(batch, EncodeDocRemove("SECURITY", int64(i), 0))
	}
	batch = append(batch, EncodeTxnCommit(7, 0))
	last, err := l.AppendTxn(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(last); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if countSegFiles(t, dir) == 0 {
		t.Fatal("batch did not cross a segment boundary; shrink SegmentBytes")
	}

	l2, res := openTestLog(t, path, Options{Policy: SyncOff, SegmentBytes: smallSeg})
	defer l2.Close()
	if res.Torn {
		t.Fatal("spanning frame reported torn")
	}
	if len(res.Records) != ops+2 {
		t.Fatalf("replayed %d records, want %d", len(res.Records), ops+2)
	}
	if res.Records[0].Kind != RecTxnBegin || res.Records[ops+1].Kind != RecTxnCommit {
		t.Fatal("frame records out of order after spanning a segment")
	}
	for i, rec := range res.Records {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d LSN = %d, want %d", i, rec.LSN, i+1)
		}
	}
}

// TestCorruptTxnFrameBoundary lands a CRC failure exactly inside a
// transaction frame — between the begin and its commit — and verifies
// the scan tears at the corrupt record, keeping the begin and the ops
// before the flip (the server-level framing pass then discards the
// unterminated transaction; see the server package's applier tests).
func TestCorruptTxnFrameBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff})
	// One standalone record, then the frame.
	if _, err := appendDocRemove(l, "SECURITY", 100, 0); err != nil {
		t.Fatal(err)
	}
	preFrame := l.SizeBytes()
	batch := [][]byte{
		EncodeTxnBegin(9),
		EncodeDocRemove("SECURITY", 1, 0),
		EncodeDocRemove("SECURITY", 2, 0),
		EncodeTxnCommit(9, 0),
	}
	if _, err := l.AppendTxn(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first op after the begin record: flip a payload byte
	// past the begin frame (frameLen + len(begin payload)).
	beginEnd := preFrame + frameLen + int64(len(EncodeTxnBegin(9)))
	raw[beginEnd+frameLen] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, res := openTestLog(t, path, Options{Policy: SyncOff})
	defer l2.Close()
	if !res.Torn || res.TornLSN != 3 {
		t.Fatalf("torn=%v tornLSN=%d, want tear at LSN 3 (first frame op)", res.Torn, res.TornLSN)
	}
	if len(res.Records) != 2 {
		t.Fatalf("kept %d records, want standalone + dangling begin", len(res.Records))
	}
	if res.Records[1].Kind != RecTxnBegin {
		t.Fatalf("surviving record kinds = %v, %v", res.Records[0].Kind, res.Records[1].Kind)
	}
}

// TestSegmentCorruptionTearsChain corrupts a sealed middle segment:
// Open must keep history before the flip, drop everything after
// (including later intact segments), and leave an appendable log.
func TestSegmentCorruptionTearsChain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff, SegmentBytes: smallSeg})
	for i := 0; i < 100; i++ {
		if _, err := appendDocRemove(l, "SECURITY", int64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	victim := segs[1]
	raw, err := os.ReadFile(victim.path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerLen+frameLen] ^= 0xFF // first record's payload
	if err := os.WriteFile(victim.path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, res := openTestLog(t, path, Options{Policy: SyncOff, SegmentBytes: smallSeg})
	if !res.Torn {
		t.Fatal("segment corruption not reported as a tear")
	}
	if res.TornLSN != victim.start+1 {
		t.Fatalf("TornLSN = %d, want %d", res.TornLSN, victim.start+1)
	}
	if got := uint64(len(res.Records)); got != victim.start {
		t.Fatalf("kept %d records, want everything before segment 2 (%d)", got, victim.start)
	}
	// The log is appendable and the sequence continues at the tear.
	lsn, err := appendDocRemove(l2, "SECURITY", 999, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != victim.start+1 {
		t.Fatalf("post-tear LSN = %d, want %d", lsn, victim.start+1)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, res3 := openTestLog(t, path, Options{Policy: SyncOff, SegmentBytes: smallSeg})
	defer l3.Close()
	if res3.Torn || uint64(len(res3.Records)) != victim.start+1 {
		t.Fatalf("after heal: torn=%v records=%d", res3.Torn, len(res3.Records))
	}
}

func TestTruncateArchivesSegments(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	archive := filepath.Join(dir, "archive")
	opts := Options{Policy: SyncOff, SegmentBytes: smallSeg, ArchiveDir: archive}
	l, _ := openTestLog(t, path, opts)
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := appendDocRemove(l, "SECURITY", int64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(n); err != nil {
		t.Fatal(err)
	}
	if countSegFiles(t, dir) != 0 {
		t.Fatal("sealed segments left behind in the log directory")
	}
	if countSegFiles(t, archive) < 2 {
		t.Fatalf("archive holds %d segments, want the whole history", countSegFiles(t, archive))
	}
	if l.EarliestLSN() != 0 {
		t.Fatalf("EarliestLSN = %d, want 0 (archive keeps everything)", l.EarliestLSN())
	}
	if l.StartLSN() != n {
		t.Fatalf("StartLSN = %d, want %d", l.StartLSN(), n)
	}
	// New appends continue; a cursor from zero streams archived history
	// and the live tail in one pass.
	for i := n; i < n+10; i++ {
		if _, err := appendDocRemove(l, "SECURITY", int64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(uint64(n + 10)); err != nil {
		t.Fatal(err)
	}
	c := l.Cursor(0)
	defer c.Close()
	for want := uint64(1); want <= n+10; want++ {
		lsn, payload, err := c.Next()
		if err != nil {
			t.Fatalf("cursor at %d: %v", want, err)
		}
		if lsn != want {
			t.Fatalf("cursor LSN = %d, want %d", lsn, want)
		}
		rec, err := DecodePayload(lsn, payload)
		if err != nil {
			t.Fatal(err)
		}
		if rec.DocID != int64(want-1) {
			t.Fatalf("cursor record %d DocID = %d", lsn, rec.DocID)
		}
	}
	if lsn, _, err := c.Next(); lsn != 0 || err != nil {
		t.Fatalf("cursor past tip = (%d, %v), want caught-up", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen sees the archive: EarliestLSN still 0.
	l2, _ := openTestLog(t, path, opts)
	defer l2.Close()
	if l2.EarliestLSN() != 0 {
		t.Fatalf("reopened EarliestLSN = %d, want 0", l2.EarliestLSN())
	}
}

func TestCursorTruncatedHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff})
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, err := appendDocRemove(l, "SECURITY", int64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if _, err := appendDocRemove(l, "SECURITY", 9, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(6); err != nil {
		t.Fatal(err)
	}
	c := l.Cursor(0) // wants LSN 1, long gone
	defer c.Close()
	if _, _, err := c.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("cursor into truncated history = %v, want ErrTruncated", err)
	}
	c2 := l.Cursor(5)
	defer c2.Close()
	lsn, _, err := c2.Next()
	if err != nil || lsn != 6 {
		t.Fatalf("cursor at retained history = (%d, %v), want 6", lsn, err)
	}
}

// TestCursorFollowsLiveWriter tails a log under a concurrent writer
// that forces segment rolls mid-stream: the cursor must surface every
// record exactly once, in order.
func TestCursorFollowsLiveWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff, SegmentBytes: smallSeg})
	defer l.Close()
	const n = 500
	writerDone := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			lsn, err := appendDocRemove(l, "SECURITY", int64(i), 0)
			if err == nil {
				err = l.Commit(lsn)
			}
			if err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()

	c := l.Cursor(0)
	defer c.Close()
	next := uint64(1)
	deadline := time.Now().Add(10 * time.Second)
	for next <= n {
		if time.Now().After(deadline) {
			t.Fatalf("cursor stalled at LSN %d", next)
		}
		lsn, payload, err := c.Next()
		if err != nil {
			t.Fatalf("cursor at %d: %v", next, err)
		}
		if lsn == 0 {
			l.WaitFlushed(next-1, 10*time.Millisecond)
			continue
		}
		if lsn != next {
			t.Fatalf("cursor LSN = %d, want %d (loss or duplication)", lsn, next)
		}
		rec, err := DecodePayload(lsn, payload)
		if err != nil {
			t.Fatal(err)
		}
		if rec.DocID != int64(next-1) {
			t.Fatalf("record %d DocID = %d", lsn, rec.DocID)
		}
		next = lsn + 1
	}
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
}

func TestTruncateTailInFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff})
	for i := 0; i < 5; i++ {
		if _, err := appendDocRemove(l, "SECURITY", int64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateTail(3); err != nil {
		t.Fatal(err)
	}
	if l.LastLSN() != 3 {
		t.Fatalf("LastLSN after tail truncate = %d, want 3", l.LastLSN())
	}
	// The sequence resumes at 4 and the dropped records stay dropped
	// across a reopen.
	lsn, err := appendDocRemove(l, "SECURITY", 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("post-truncate LSN = %d, want 4", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, res := openTestLog(t, path, Options{Policy: SyncOff})
	defer l2.Close()
	if res.Torn || len(res.Records) != 4 {
		t.Fatalf("reopened: torn=%v records=%d, want clean 4", res.Torn, len(res.Records))
	}
	if res.Records[3].DocID != 40 {
		t.Fatalf("record 4 DocID = %d, want the re-append", res.Records[3].DocID)
	}
}

func TestTruncateTailUnwindsSegments(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff, SegmentBytes: smallSeg})
	for i := 0; i < 100; i++ {
		if _, err := appendDocRemove(l, "SECURITY", int64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	// Cut into the middle of the second segment.
	target := segs[1].start + 1
	if err := l.TruncateTail(target); err != nil {
		t.Fatal(err)
	}
	if l.LastLSN() != target {
		t.Fatalf("LastLSN = %d, want %d", l.LastLSN(), target)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, res := openTestLog(t, path, Options{Policy: SyncOff, SegmentBytes: smallSeg})
	defer l2.Close()
	if res.Torn {
		t.Fatal("tail-truncated log reported torn")
	}
	if uint64(len(res.Records)) != target {
		t.Fatalf("reopened %d records, want %d", len(res.Records), target)
	}
	for i, rec := range res.Records {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d LSN = %d", i, rec.LSN)
		}
	}
}

func TestAppendRawEnforcesContinuity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff})
	defer l.Close()
	p := EncodeDocRemove("SECURITY", 1, 0)
	if err := l.AppendRaw(1, p); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRaw(1, p); err == nil {
		t.Fatal("duplicate LSN accepted")
	}
	if err := l.AppendRaw(3, p); err == nil {
		t.Fatal("gapped LSN accepted")
	}
	if err := l.AppendRaw(2, p); err != nil {
		t.Fatal(err)
	}
	if l.LastLSN() != 2 {
		t.Fatalf("LastLSN = %d, want 2", l.LastLSN())
	}
}

// failingSyncFile injects an fsync failure under the log.
type failingSyncFile struct {
	logFile
	err error
}

func (f *failingSyncFile) Sync() error { return f.err }

// TestFsyncGate: after one failed fsync the log must refuse every
// later append and commit — even commits whose LSNs an earlier fsync
// already covered — instead of retrying onto pages the kernel may have
// dropped (the classic fsync-gate bug).
func TestFsyncGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncAlways})
	defer l.Close()
	lsn1, err := appendDocRemove(l, "SECURITY", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn1); err != nil {
		t.Fatal(err)
	}

	injected := fmt.Errorf("injected: lost my disk")
	l.mu.Lock()
	l.f = &failingSyncFile{logFile: l.f, err: injected}
	l.mu.Unlock()

	lsn2, err := appendDocRemove(l, "SECURITY", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn2); !errors.Is(err, injected) {
		t.Fatalf("commit over failing fsync = %v, want injected error", err)
	}
	// The failure is sticky: un-inject the fault and verify the log
	// still refuses everything — a later "successful" fsync proves
	// nothing about the pages the first failure covered.
	l.mu.Lock()
	l.f = l.f.(*failingSyncFile).logFile
	l.mu.Unlock()
	if _, err := appendDocRemove(l, "SECURITY", 3, 0); !errors.Is(err, injected) {
		t.Fatalf("append after fsync failure = %v, want sticky injected error", err)
	}
	if err := l.Commit(lsn2); !errors.Is(err, injected) {
		t.Fatalf("commit retry after fsync failure = %v, want sticky injected error", err)
	}
	if err := l.Commit(lsn1); !errors.Is(err, injected) {
		t.Fatalf("commit of durable LSN after fsync failure = %v, want sticky injected error", err)
	}
}

func TestWaitFlushed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff})
	defer l.Close()
	if tip := l.WaitFlushed(0, 20*time.Millisecond); tip != 0 {
		t.Fatalf("WaitFlushed on empty log = %d, want timeout at 0", tip)
	}
	done := make(chan uint64, 1)
	go func() { done <- l.WaitFlushed(0, 5*time.Second) }()
	lsn, err := appendDocRemove(l, "SECURITY", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if tip := <-done; tip != 1 {
		t.Fatalf("WaitFlushed woke at %d, want 1", tip)
	}
}
