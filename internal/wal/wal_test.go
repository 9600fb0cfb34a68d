package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

func testDoc(t testing.TB, i int) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(fmt.Sprintf(
		`<Security><Symbol>SYM%04d</Symbol><Yield>%d.5</Yield></Security>`, i, i%9))
	if err != nil {
		t.Fatal(err)
	}
	doc.DocID = int64(i)
	return doc
}

func testDef(t testing.TB) xindex.Definition {
	t.Helper()
	pat, err := xpath.ParsePattern("/Security/Symbol")
	if err != nil {
		t.Fatal(err)
	}
	return xindex.Definition{Table: "SECURITY", Pattern: pat, Type: xpath.StringVal}
}

func openTestLog(t *testing.T, path string, opts Options) (*Log, *OpenResult) {
	t.Helper()
	l, res, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, res
}

// appendPayload logs one record through AppendTxn, the entry point
// every local writer uses; the appendDoc* helpers encode one document
// record each for it.
func appendPayload(l *Log, p []byte) (uint64, error) { return l.AppendTxn([][]byte{p}) }

func appendDocInsert(l *Log, table string, doc *xmltree.Document, stamp uint64) (uint64, error) {
	p, err := EncodeDocInsert(table, doc, stamp)
	if err != nil {
		return 0, err
	}
	return appendPayload(l, p)
}

func appendDocReplace(l *Log, table string, doc *xmltree.Document, stamp uint64) (uint64, error) {
	p, err := EncodeDocReplace(table, doc, stamp)
	if err != nil {
		return 0, err
	}
	return appendPayload(l, p)
}

func appendDocRemove(l *Log, table string, docID int64, stamp uint64) (uint64, error) {
	return appendPayload(l, EncodeDocRemove(table, docID, stamp))
}

func TestRoundTripAllRecordKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff})
	def := testDef(t)

	doc := testDoc(t, 7)
	if _, err := appendDocInsert(l, "SECURITY", doc, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := appendPayload(l, EncodeIndexCreate(def)); err != nil {
		t.Fatal(err)
	}
	if _, err := appendDocRemove(l, "SECURITY", 7, 0); err != nil {
		t.Fatal(err)
	}
	lsn, err := appendPayload(l, EncodeIndexDrop(def))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("last LSN = %d, want 4", lsn)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, res := openTestLog(t, path, Options{Policy: SyncOff})
	defer l2.Close()
	if res.Torn {
		t.Fatal("clean log reported torn")
	}
	recs := res.Records
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
	wantKinds := []RecKind{RecDocInsert, RecIndexCreate, RecDocRemove, RecIndexDrop}
	for i, rec := range recs {
		if rec.Kind != wantKinds[i] {
			t.Fatalf("record %d kind = %v, want %v", i, rec.Kind, wantKinds[i])
		}
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d LSN = %d, want %d", i, rec.LSN, i+1)
		}
	}
	got := recs[0].Doc
	if got.DocID != 7 || got.Len() != doc.Len() {
		t.Fatalf("doc-insert payload: DocID=%d Len=%d, want 7/%d", got.DocID, got.Len(), doc.Len())
	}
	if xmltree.SerializeString(got) != xmltree.SerializeString(doc) {
		t.Fatal("doc-insert payload does not round-trip")
	}
	if recs[2].DocID != 7 || recs[2].Table != "SECURITY" {
		t.Fatalf("doc-remove payload: %+v", recs[2])
	}
	if recs[1].Def.Key() != def.Key() || recs[3].Def.Key() != def.Key() {
		t.Fatal("index record definitions do not round-trip")
	}
	if l2.LastLSN() != 4 || l2.StartLSN() != 0 {
		t.Fatalf("reopened LSNs = (%d,%d], want (0,4]", l2.StartLSN(), l2.LastLSN())
	}
}

// TestTornFinalRecord chops bytes off the tail and verifies recovery
// keeps everything before the tear and the log accepts appends after.
func TestTornFinalRecord(t *testing.T) {
	for _, chop := range []int{1, 3, frameLen, frameLen + 1} {
		t.Run(fmt.Sprintf("chop=%d", chop), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			l, _ := openTestLog(t, path, Options{Policy: SyncOff})
			for i := 0; i < 5; i++ {
				if _, err := appendDocInsert(l, "SECURITY", testDoc(t, i), 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)-chop], 0o644); err != nil {
				t.Fatal(err)
			}

			l2, res := openTestLog(t, path, Options{Policy: SyncOff})
			if !res.Torn {
				t.Fatal("torn tail not reported")
			}
			if res.TornLSN != 5 {
				t.Fatalf("TornLSN = %d, want 5", res.TornLSN)
			}
			if len(res.Records) != 4 {
				t.Fatalf("recovered %d records, want 4", len(res.Records))
			}
			// The tear is gone: appends continue, and a further reopen
			// sees a clean log.
			lsn, err := appendDocRemove(l2, "SECURITY", 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if lsn != 5 {
				t.Fatalf("post-tear append LSN = %d, want 5", lsn)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			l3, res3 := openTestLog(t, path, Options{Policy: SyncOff})
			defer l3.Close()
			if res3.Torn || len(res3.Records) != 5 {
				t.Fatalf("after heal: torn=%v records=%d, want clean 5", res3.Torn, len(res3.Records))
			}
			if res3.Records[4].Kind != RecDocRemove {
				t.Fatalf("post-tear record kind = %v", res3.Records[4].Kind)
			}
		})
	}
}

// TestCorruptMidFile flips one payload byte of an early record: replay
// must stop cleanly at the flip (treating it like a tear) and keep
// everything before it.
func TestCorruptMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff})
	var offsets []int64
	for i := 0; i < 5; i++ {
		if _, err := appendDocRemove(l, "SECURITY", int64(i), 0); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, l.SizeBytes())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside record 3 (i.e. after record 2's end
	// plus the frame header).
	raw[offsets[1]+frameLen] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, res := openTestLog(t, path, Options{Policy: SyncOff})
	defer l2.Close()
	if !res.Torn || len(res.Records) != 2 {
		t.Fatalf("torn=%v records=%d, want torn with 2 intact", res.Torn, len(res.Records))
	}
	if l2.LastLSN() != 2 {
		t.Fatalf("LastLSN = %d, want 2", l2.LastLSN())
	}
}

func TestCorruptHeaderRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("NOTAWAL0garbage-garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, Options{}); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTruncateResetsStartLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff})
	for i := 0; i < 3; i++ {
		if _, err := appendDocRemove(l, "SECURITY", int64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(2); err == nil {
		t.Fatal("truncate below last LSN accepted")
	}
	if err := l.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if l.SizeBytes() != headerLen {
		t.Fatalf("size after truncate = %d, want %d", l.SizeBytes(), headerLen)
	}
	// Appends continue with the LSN sequence intact.
	lsn, err := appendDocRemove(l, "SECURITY", 9, 0)
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
	if l2.StartLSN() != 3 {
		t.Fatalf("reopened StartLSN = %d, want 3", l2.StartLSN())
	}
	if len(res.Records) != 1 || res.Records[0].LSN != 4 {
		t.Fatalf("reopened tail = %+v, want one record at LSN 4", res.Records)
	}
}

// TestGroupCommitConcurrent storms a SyncAlways log with concurrent
// committers: every commit must return only after its LSN is durable,
// and the grouped fsyncs must not lose or reorder records.
func TestGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncAlways})
	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := appendDocRemove(l, "SECURITY", int64(w*1000+i), 0)
				if err == nil {
					err = l.Commit(lsn)
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := l.LastLSN(); got != writers*perWriter {
		t.Fatalf("LastLSN = %d, want %d", got, writers*perWriter)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, res := openTestLog(t, path, Options{Policy: SyncAlways})
	defer l2.Close()
	if len(res.Records) != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", len(res.Records), writers*perWriter)
	}
	seen := make(map[int64]bool)
	for _, rec := range res.Records {
		seen[rec.DocID] = true
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("lost records: %d distinct IDs, want %d", len(seen), writers*perWriter)
	}
}

func TestBatchedPolicyDurableAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncBatched})
	lsn, err := appendDocRemove(l, "SECURITY", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	// Batched commits flush to the OS: the record is on file even
	// before Close's fsync.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= headerLen {
		t.Fatal("batched commit did not reach the OS")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"batched", SyncBatched, true},
		{"off", SyncOff, true},
		{"fsync", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && got.String() != tc.in {
			t.Fatalf("round-trip %q -> %q", tc.in, got)
		}
	}
}

func TestDocPayloadMatchesPersistEncoding(t *testing.T) {
	// The WAL reuses persist's node encoding verbatim; a doc with
	// attributes, nesting, and text must round-trip through a record.
	doc, err := xmltree.ParseString(`<Order id="42"><Cust type="gold">Álvaro &amp; sons</Cust><Total>19.5</Total></Order>`)
	if err != nil {
		t.Fatal(err)
	}
	doc.DocID = 42
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff})
	if _, err := appendDocInsert(l, "ORDERS", doc, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, res := openTestLog(t, path, Options{Policy: SyncOff})
	got := res.Records[0].Doc
	if !bytes.Equal([]byte(xmltree.SerializeString(got)), []byte(xmltree.SerializeString(doc))) {
		t.Fatalf("round-trip mismatch:\n got %s\nwant %s",
			xmltree.SerializeString(got), xmltree.SerializeString(doc))
	}
}

func TestDocReplaceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff})
	doc := testDoc(t, 3)
	if _, err := appendDocReplace(l, "SECURITY", doc, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, res := openTestLog(t, path, Options{Policy: SyncOff})
	defer l2.Close()
	if len(res.Records) != 1 || res.Records[0].Kind != RecDocReplace {
		t.Fatalf("records = %+v, want one doc-replace", res.Records)
	}
	got := res.Records[0]
	if got.DocID != 3 || xmltree.SerializeString(got.Doc) != xmltree.SerializeString(doc) {
		t.Fatal("doc-replace payload does not round-trip")
	}
}

// TestPartialHeaderHeals: a crash mid-creation leaves a sub-header
// file; Open must start it fresh instead of bricking the log.
func TestPartialHeaderHeals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, magic[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	l, res := openTestLog(t, path, Options{Policy: SyncOff})
	defer l.Close()
	if res.Torn || len(res.Records) != 0 {
		t.Fatalf("healed log reports torn=%v records=%d", res.Torn, len(res.Records))
	}
	if _, err := appendDocRemove(l, "SECURITY", 1, 0); err != nil {
		t.Fatal(err)
	}
}

// TestTruncateAdvancesPastLast: truncating beyond the last appended
// LSN advances the sequence — recovery uses this so a recreated log
// can never re-issue LSNs an existing checkpoint covers.
func TestTruncateAdvancesPastLast(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff})
	if _, err := appendDocRemove(l, "SECURITY", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(100); err != nil {
		t.Fatal(err)
	}
	lsn, err := appendDocRemove(l, "SECURITY", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 101 {
		t.Fatalf("post-advance append LSN = %d, want 101", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, res := openTestLog(t, path, Options{Policy: SyncOff})
	defer l2.Close()
	if l2.StartLSN() != 100 || len(res.Records) != 1 || res.Records[0].LSN != 101 {
		t.Fatalf("reopened: start=%d records=%+v, want start 100 with one record at 101", l2.StartLSN(), res.Records)
	}
}

// TestAppendTxnFramingRoundTrip: a transaction batch appends as one
// contiguous run of frames — begin, the operations, commit — and the
// records round-trip with matching transaction IDs and consecutive
// LSNs even when standalone appends race the batch.
func TestAppendTxnFramingRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openTestLog(t, path, Options{Policy: SyncOff})

	ins, err := EncodeDocInsert("SECURITY", testDoc(t, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EncodeDocReplace("ORDERS", testDoc(t, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]byte{
		EncodeTxnBegin(42),
		ins,
		rep,
		EncodeDocRemove("SECURITY", 9, 0),
		EncodeTxnCommit(42, 0),
	}

	// Standalone appends race the batch from another goroutine; the
	// batch frames must still come out contiguous.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := appendDocRemove(l, "NOISE", int64(i), 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var last uint64
	for i := 0; i < 50; i++ {
		if last, err = l.AppendTxn(batch); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := l.Commit(last); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, res := openTestLog(t, path, Options{Policy: SyncOff})
	if res.Torn {
		t.Fatal("clean log reported torn")
	}
	wantKinds := []RecKind{RecTxnBegin, RecDocInsert, RecDocReplace, RecDocRemove, RecTxnCommit}
	batches := 0
	for i := 0; i < len(res.Records); {
		rec := res.Records[i]
		if rec.Kind != RecTxnBegin {
			if rec.Table != "NOISE" {
				t.Fatalf("unexpected standalone record %+v", rec)
			}
			i++
			continue
		}
		if rec.TxnID != 42 {
			t.Fatalf("txn-begin ID = %d, want 42", rec.TxnID)
		}
		for j, want := range wantKinds {
			got := res.Records[i+j]
			if got.Kind != want {
				t.Fatalf("batch record %d kind = %v, want %v (batch interleaved?)", j, got.Kind, want)
			}
			if got.LSN != rec.LSN+uint64(j) {
				t.Fatalf("batch LSNs not consecutive: %d vs %d+%d", got.LSN, rec.LSN, j)
			}
		}
		if res.Records[i+len(wantKinds)-1].TxnID != 42 {
			t.Fatal("txn-commit ID does not round-trip")
		}
		if res.Records[i+1].Table != "SECURITY" || res.Records[i+2].Table != "ORDERS" {
			t.Fatalf("batch op payloads corrupted: %+v", res.Records[i:i+5])
		}
		batches++
		i += len(wantKinds)
	}
	if batches != 50 {
		t.Fatalf("found %d intact batches, want 50", batches)
	}
}
