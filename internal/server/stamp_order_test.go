package server

// Stamp-order replay tests: commits on disjoint tables append to the
// WAL outside any shared lock, so log order and commit-stamp order may
// differ — replay must restore stamp order. The property test drives
// random concurrent interleavings and checks recovery is bit-identical
// and applies in stamp order; the unit test hand-crafts out-of-order
// and gapped streams to pin the reorder buffer's behavior exactly.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"xixa/internal/storage"
	"xixa/internal/wal"
	"xixa/internal/xmltree"
)

// TestStampOrderReplayProperty runs concurrent committers over
// disjoint tables — the interleaving of their two-op commit records is
// whatever the scheduler produced — and asserts the invariants the
// commit pipeline promises:
//
//  1. a fresh Recover of the log is bit-identical to the live image,
//  2. replay publishes commits in commit-stamp order, with per-table
//     stamps appearing in log order (same-table commits append under
//     the table's commit lock and can never arrive stamp-inverted),
//  3. every commit is one record: one LSN per transaction.
func TestStampOrderReplayProperty(t *testing.T) {
	const writers, perWriter = 4, 10
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), func() (*storage.Database, error) {
		db := storage.NewDatabase()
		for w := 0; w < writers; w++ {
			name := fmt.Sprintf("T%02d", w)
			db.MustCreateTable(name)
			doc, perr := xmltree.ParseString(`<Security><Symbol>SEED</Symbol><Yield>1.5</Yield></Security>`)
			if perr != nil {
				return nil, perr
			}
			if _, perr := db.Load(name, doc); perr != nil {
				return nil, perr
			}
		}
		return db, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := srv.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			for i := 0; i < perWriter; i++ {
				tx, err := sess.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < 2; j++ {
					raw := fmt.Sprintf(`insert into T%02d value <Security><Symbol>P%d-%03d-%d</Symbol><Yield>2.5</Yield></Security>`, w, w, i, j)
					if _, err := tx.Execute(raw); err != nil {
						t.Error(err)
						tx.Rollback()
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := dbBytes(t, srv)
	wantWatermark := srv.DB().Watermark()
	srv = nil // crash: the checkpoint and WAL are all that survive

	// Replay the surviving log through a fresh applier with the table
	// feeds instrumented: every published change carries its commit
	// stamp, so the observed stamp sequence IS the publish order.
	l, scanned, err := wal.Open(WALPath(dir), wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	db, defs, chkLSN, chkStamp, err := wal.LoadCheckpointFile(CheckpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var published []uint64
	for _, name := range db.TableNames() {
		tbl, terr := db.Table(name)
		if terr != nil {
			t.Fatal(terr)
		}
		tbl.Subscribe(func(c storage.Change) {
			published = append(published, c.LSN)
		})
	}
	applier := NewApplier(db, defs, chkLSN, chkStamp)
	perTable := make(map[string][]uint64) // commit stamps in log order
	commits := 0
	for i := range scanned.Records {
		rec := scanned.Records[i]
		if rec.LSN <= chkLSN {
			continue
		}
		if rec.Kind == wal.RecCommit {
			commits++
			if len(rec.Ops) != 2 {
				t.Fatalf("commit at LSN %d holds %d ops, want the transaction's 2", rec.LSN, len(rec.Ops))
			}
			for _, op := range rec.Ops {
				perTable[op.Table] = append(perTable[op.Table], rec.Stamp)
			}
		}
		if err := applier.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := applier.Flush(); err != nil {
		t.Fatal(err)
	}
	if commits != writers*perWriter || applier.AppliedLSN() != chkLSN+uint64(commits) {
		t.Fatalf("%d commit records through LSN %d past checkpoint %d, want %d transactions at one LSN each",
			commits, applier.AppliedLSN(), chkLSN, writers*perWriter)
	}

	for i := 1; i < len(published); i++ {
		if published[i] < published[i-1] {
			t.Fatalf("replay published stamp %d after %d: not stamp order", published[i], published[i-1])
		}
	}
	for name, stamps := range perTable {
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				t.Errorf("table %s: log order inverts stamps %d then %d", name, stamps[i-1], stamps[i])
			}
		}
	}
	if got := db.Watermark(); got != wantWatermark {
		t.Errorf("replayed watermark %d, want %d", got, wantWatermark)
	}
	var buf bytes.Buffer
	if err := wal.SaveCheckpoint(&buf, db, applier.Defs(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("instrumented replay image differs from live image")
	}

	// And the real recovery path agrees bit for bit.
	srv2, info, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if info.Replayed == 0 {
		t.Error("recovery replayed nothing; the burst never reached the log")
	}
	if got := dbBytes(t, srv2); !bytes.Equal(got, want) {
		t.Error("recovered image differs from live image")
	}
}

// propDoc builds a one-node document with an explicit document ID, the
// shape replayed commits carry.
func propDoc(t *testing.T, sym string, id int64) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(`<Security><Symbol>` + sym + `</Symbol></Security>`)
	if err != nil {
		t.Fatal(err)
	}
	doc.DocID = id
	return doc
}

// record decodes a payload at an LSN, as a streaming follower does.
func record(t *testing.T, lsn uint64, payload []byte) wal.Record {
	t.Helper()
	rec, err := wal.DecodePayload(lsn, payload)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// commitOf encodes a commit inserting one document per symbol into
// table, with IDs counting up from 1.
func commitOf(t *testing.T, table string, stamp uint64, syms ...string) []byte {
	t.Helper()
	ops := make([]storage.TxOp, len(syms))
	for i, sym := range syms {
		ops[i] = storage.TxOp{Table: table, Kind: storage.TxInsert, DocID: int64(i + 1), Doc: propDoc(t, sym, int64(i+1))}
	}
	p, err := wal.EncodeCommit(ops, stamp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestApplierReorder pins the reorder buffer's exact behavior on a
// hand-crafted stream of multi-op commits: a commit arriving ahead of
// its stamp parks and drains when the gap closes, and Flush publishes
// parked commits across a true stamp gap (the missing commit died with
// the log) in ascending order.
func TestApplierReorder(t *testing.T) {
	t.Run("park-then-drain", func(t *testing.T) {
		db := storage.NewDatabase()
		db.MustCreateTable("A")
		db.MustCreateTable("B")
		var published []uint64
		for _, name := range []string{"A", "B"} {
			tbl, _ := db.Table(name)
			tbl.Subscribe(func(c storage.Change) { published = append(published, c.LSN) })
		}
		a := NewApplier(db, nil, 0, 0)

		// Log order inverts stamp order: table B's commit (stamp 2)
		// appended before table A's (stamp 1) — only possible because
		// the tables are disjoint.
		if err := a.Apply(record(t, 1, commitOf(t, "B", 2, "B1", "B2"))); err != nil {
			t.Fatal(err)
		}
		if got := len(published); got != 0 {
			t.Fatalf("commit ahead of its stamp published %d changes, want 0 (parked)", got)
		}
		if err := a.Apply(record(t, 2, commitOf(t, "A", 1, "A1", "A2"))); err != nil {
			t.Fatal(err)
		}
		if want := []uint64{1, 1, 2, 2}; fmt.Sprint(published) != fmt.Sprint(want) {
			t.Fatalf("published stamps %v, want %v", published, want)
		}
		if buf, peak := a.ReorderStats(); buf != 1 || peak != 1 {
			t.Fatalf("ReorderStats = (%d, %d), want (1, 1)", buf, peak)
		}
		if got := a.AppliedLSN(); got != 2 {
			t.Fatalf("AppliedLSN = %d, want 2", got)
		}
		for _, name := range []string{"A", "B"} {
			tbl, _ := db.Table(name)
			if tbl.DocCount() != 2 {
				t.Errorf("table %s holds %d docs, want 2", name, tbl.DocCount())
			}
		}
		if got := db.Watermark(); got != 2 {
			t.Errorf("watermark %d, want 2", got)
		}
	})

	t.Run("flush-across-gap", func(t *testing.T) {
		db := storage.NewDatabase()
		db.MustCreateTable("A")
		db.MustCreateTable("B")
		var published []uint64
		for _, name := range []string{"A", "B"} {
			tbl, _ := db.Table(name)
			tbl.Subscribe(func(c storage.Change) { published = append(published, c.LSN) })
		}
		a := NewApplier(db, nil, 0, 0)

		// Stamp 1 was allocated but its commit never reached the log
		// (crash between allocation and append): stamps 2 and 3 park
		// forever until Flush skips the gap.
		lsn := uint64(0)
		for _, p := range [][]byte{commitOf(t, "B", 3, "B1", "B2"), commitOf(t, "A", 2, "A1", "A2")} {
			lsn++
			if err := a.Apply(record(t, lsn, p)); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(published); got != 0 {
			t.Fatalf("gapped commits published %d changes before Flush, want 0", got)
		}
		if buf, peak := a.ReorderStats(); buf != 2 || peak != 2 {
			t.Fatalf("ReorderStats = (%d, %d), want (2, 2)", buf, peak)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := []uint64{2, 2, 3, 3}; fmt.Sprint(published) != fmt.Sprint(want) {
			t.Fatalf("Flush published stamps %v, want %v", published, want)
		}
		if got := a.AppliedLSN(); got != lsn {
			t.Fatalf("AppliedLSN = %d, want %d (parked commits count as applied)", got, lsn)
		}
	})
}

// AppliedLSN is the LSN of the last record consumed. Commits parked
// in the reorder buffer count: they publish at Flush.
func (a *Applier) AppliedLSN() uint64 { return a.applied }
