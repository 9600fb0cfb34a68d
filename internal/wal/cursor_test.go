package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"xixa/internal/storage"
)

// TestCorruptCommitRecordDropsWholeCommit lands a CRC failure inside
// a multi-op commit record: the scan tears at that record, so none of
// its operations survive, and the record before it is kept.
func TestCorruptCommitRecordDropsWholeCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff})
	if _, err := appendDocRemove(l, "SECURITY", 100, 0); err != nil {
		t.Fatal(err)
	}
	preCommit := l.SizeBytes()
	commit, err := EncodeCommit([]storage.TxOp{
		{Table: "SECURITY", Kind: storage.TxDelete, DocID: 1},
		{Table: "SECURITY", Kind: storage.TxDelete, DocID: 2},
		{Table: "SECURITY", Kind: storage.TxDelete, DocID: 3},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendTxn([][]byte{commit}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the last byte of the commit payload: the second and third
	// operations' bytes, past the first operation's.
	raw[preCommit+frameLen+int64(len(commit))-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, res := openTestLog(t, path, Options{Policy: SyncOff})
	defer l2.Close()
	if !res.Torn || res.TornLSN != 2 {
		t.Fatalf("torn=%v tornLSN=%d, want tear at LSN 2 (the commit)", res.Torn, res.TornLSN)
	}
	if len(res.Records) != 1 || res.Records[0].Ops[0].DocID != 100 {
		t.Fatalf("kept %+v, want only the record before the commit", res.Records)
	}
	if l2.LastLSN() != 1 {
		t.Fatalf("LastLSN = %d, want 1", l2.LastLSN())
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
// that checkpoint-truncates every few records, swapping the file under
// the cursor mid-stream: the cursor must surface every record exactly
// once, in order. The writer truncates again only once the cursor has
// surfaced a record of the current file — a cursor left behind a
// second truncation has lost its history (ErrTruncated), which
// TestCursorTruncatedHistory covers.
func TestCursorFollowsLiveWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff})
	defer l.Close()
	const n, every = 500, 7
	var seen atomic.Uint64
	writerDone := make(chan error, 1)
	go func() {
		truncated := uint64(0)
		for i := 0; i < n; i++ {
			lsn, err := appendDocRemove(l, "SECURITY", int64(i), 0)
			if err == nil {
				err = l.Commit(lsn)
			}
			if err == nil && lsn%every == 0 {
				for deadline := time.Now().Add(10 * time.Second); seen.Load() <= truncated; {
					if time.Now().After(deadline) {
						err = fmt.Errorf("cursor never reached the file starting at LSN %d", truncated)
						break
					}
					time.Sleep(50 * time.Microsecond)
				}
				if err == nil {
					err = l.Truncate(lsn)
					truncated = lsn
				}
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
		if rec.Ops[0].DocID != int64(next-1) {
			t.Fatalf("record %d DocID = %d", lsn, rec.Ops[0].DocID)
		}
		seen.Store(lsn)
		next = lsn + 1
	}
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	if got := l.StartLSN(); got != n/every*every {
		t.Fatalf("log starts at LSN %d, want the last truncation %d", got, n/every*every)
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
