package server

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"xixa/internal/obs"
	"xixa/internal/storage"
	"xixa/internal/xmltree"
)

// txnSeries reads the transaction and commit-pipeline series from the
// server's registry, the numbers \stats and /metrics render.
type txnSeries struct {
	commits, aborts, conflicts uint64
	stamps, watermark, lag     uint64
}

func readTxnSeries(srv *Server) txnSeries {
	v := obs.Values(srv.Metrics().Snapshot())
	return txnSeries{
		commits:   uint64(v["xixa_txn_commits_total"]),
		aborts:    uint64(v["xixa_txn_aborts_total"]),
		conflicts: uint64(v["xixa_txn_conflicts_total"]),
		stamps:    uint64(v["xixa_mvcc_stamps_allocated"]),
		watermark: uint64(v["xixa_mvcc_watermark"]),
		lag:       uint64(v["xixa_mvcc_publish_lag"]),
	}
}

func bootstrapTwoTables(n int) func() (*storage.Database, error) {
	return func() (*storage.Database, error) {
		db := fixtureDB(n) // SECURITY
		db.MustCreateTable("ORDERS")
		docs := make([]*xmltree.Document, n)
		for i := range docs {
			docs[i] = secDoc(fmt.Sprintf("O%05d", i), "Orders", float64(i%10))
		}
		_, err := db.Load("ORDERS", docs...)
		return db, err
	}
}

// TestTxnCommitRollbackVisibility: an explicit transaction's writes
// are invisible until Commit, and Rollback leaves no trace.
func TestTxnCommitRollbackVisibility(t *testing.T) {
	srv := New(fixtureDB(10), Config{})
	defer srv.Close()
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	tx, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Execute(`insert into SECURITY value <Security><Symbol>TXN-A</Symbol><Yield>1.5</Yield></Security>`); err != nil {
		t.Fatal(err)
	}
	// Inside: visible. Outside: not yet.
	res, err := tx.Execute(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "TXN-A" return $s`)
	if err != nil || len(res.Refs) != 1 {
		t.Fatalf("txn does not see own write: %v, %v", res, err)
	}
	out, err := sess.Execute(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "TXN-A" return $s`)
	if err != nil || len(out.Refs) != 0 {
		t.Fatalf("uncommitted write visible outside txn: %v, %v", out, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	out, err = sess.Execute(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "TXN-A" return $s`)
	if err != nil || len(out.Refs) != 1 {
		t.Fatalf("committed write not visible: %v, %v", out, err)
	}

	// Rollback path.
	tx2, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Execute(`delete from SECURITY where /Security[Symbol="TXN-A"]`); err != nil {
		t.Fatal(err)
	}
	tx2.Rollback()
	out, err = sess.Execute(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "TXN-A" return $s`)
	if err != nil || len(out.Refs) != 1 {
		t.Fatalf("rolled-back delete took effect: %v, %v", out, err)
	}
	if _, err := tx2.Execute(`for $s in SECURITY('SDOC')/Security return $s`); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("execute on finished txn: %v, want ErrTxnFinished", err)
	}
}

// TestTxnConflictCounters: first-writer-wins surfaces as
// storage.ErrConflict on the second committer and the server's
// transaction counters track commits, aborts, and conflicts.
func TestTxnConflictCounters(t *testing.T) {
	srv := New(fixtureDB(10), Config{})
	defer srv.Close()
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	base := readTxnSeries(srv)

	t1, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Execute(`update SECURITY set Yield = 11.0 where /Security[Symbol="S00003"]`); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Execute(`update SECURITY set Yield = 22.0 where /Security[Symbol="S00003"]`); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, storage.ErrConflict) {
		t.Fatalf("second committer err = %v, want storage.ErrConflict", err)
	}

	st := readTxnSeries(srv)
	if st.commits != base.commits+1 {
		t.Errorf("commits = %d, want %d", st.commits, base.commits+1)
	}
	if st.conflicts != base.conflicts+1 {
		t.Errorf("conflicts = %d, want %d", st.conflicts, base.conflicts+1)
	}
	if st.aborts != base.aborts+1 {
		t.Errorf("aborts = %d, want %d", st.aborts, base.aborts+1)
	}
	// The loser burned no stamp: validation fails before allocation.
	if st.stamps != base.stamps+1 || st.watermark != st.stamps || st.lag != 0 {
		t.Errorf("stamps %d (want %d), watermark %d, publish lag %d after one commit",
			st.stamps, base.stamps+1, st.watermark, st.lag)
	}

	// The auto-commit path retries conflicts away: concurrent
	// single-statement updates of one document all succeed.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				raw := fmt.Sprintf(`update SECURITY set Yield = %d.%d where /Security[Symbol="S00005"]`, w, i)
				if _, err := sess.Execute(raw); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTxnWriterScalingDisjointTables: concurrent writers on distinct
// tables commit in parallel with no global writer lock; every commit
// succeeds with zero conflicts, and the per-table insert counts and
// stats come out exact.
func TestTxnWriterScalingDisjointTables(t *testing.T) {
	const writers = 8
	const perWriter = 30
	db := fixtureDB(10)
	var tbls []*storage.Table
	for w := 0; w < writers; w++ {
		tbls = append(tbls, db.MustCreateTable(fmt.Sprintf("T%02d", w)))
	}
	srv := New(db, Config{MaxConcurrent: writers, QueueDepth: 4 * writers})
	defer srv.Close()

	base := readTxnSeries(srv)
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
				raw := fmt.Sprintf(`insert into T%02d value <Security><Symbol>W%d-%03d</Symbol><Yield>%d.5</Yield></Security>`, w, w, i, i%9)
				res, err := sess.Execute(raw)
				for errors.Is(err, ErrOverloaded) {
					res, err = sess.Execute(raw)
				}
				if err != nil {
					t.Errorf("writer %d insert %d: %v", w, i, err)
					return
				}
				_ = res
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w, tbl := range tbls {
		if tbl.DocCount() != perWriter {
			t.Errorf("table T%02d holds %d docs, want %d", w, tbl.DocCount(), perWriter)
		}
	}
	st := readTxnSeries(srv)
	if got := st.commits - base.commits; got != writers*perWriter {
		t.Errorf("commits = %d, want %d", got, writers*perWriter)
	}
	if st.conflicts != base.conflicts {
		t.Errorf("disjoint-table writers conflicted %d times", st.conflicts-base.conflicts)
	}
	// Every commit published: the watermark caught up with the stamps
	// handed out and nothing is left above it.
	if got := st.stamps - base.stamps; got != writers*perWriter || st.watermark != st.stamps || st.lag != 0 {
		t.Errorf("%d stamps allocated (want %d), watermark %d of %d, publish lag %d",
			got, writers*perWriter, st.watermark, st.stamps, st.lag)
	}
}

// TestRecoverInterleavedTxns is the transactional durability
// acceptance test: two writers commit multi-operation transactions on
// different tables concurrently (their commit records interleave in
// the log), the process "crashes" with one more transaction's commit
// record torn at the tail, and recovery reproduces exactly the
// committed transactions — the torn commit leaves no trace, and the
// recovered image is bit-identical to the pre-crash committed state.
func TestRecoverInterleavedTxns(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := Recover(durableCfg(dir), bootstrapTwoTables(20))
	if err != nil {
		t.Fatal(err)
	}

	const perWriter = 15
	tables := []string{"SECURITY", "ORDERS"}
	var wg sync.WaitGroup
	for w := range tables {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			table := tables[w]
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
				// Two inserts plus an update of the first: the update
				// folds into the buffered insert's image, so the commit
				// record carries two operations per transaction.
				for j := 0; j < 2; j++ {
					raw := fmt.Sprintf(`insert into %s value <Security><Symbol>TX%d-%03d-%d</Symbol><Yield>3.5</Yield></Security>`, table, w, i, j)
					if _, err := tx.Execute(raw); err != nil {
						t.Error(err)
						tx.Rollback()
						return
					}
				}
				raw := fmt.Sprintf(`update %s set Yield = 9.9 where /Security[Symbol="TX%d-%03d-0"]`, table, w, i)
				if _, err := tx.Execute(raw); err != nil {
					t.Error(err)
					tx.Rollback()
					return
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

	// The crash: one more two-insert transaction's commit record was
	// being written when the process died, so its tail never reached
	// the file.
	committed := srv.WAL().LastLSN()
	appendTornCommit(t, srv.WAL(), WALPath(dir), srv.DB().Watermark()+1, "TORN0", "TORN1")
	// Abandon without Close: the WAL is all that survives.
	srv = nil

	srv2, info, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := dbBytes(t, srv2); !bytes.Equal(got, want) {
		t.Fatalf("recovered image (%d bytes) differs from committed pre-crash state (%d bytes)", len(got), len(want))
	}
	if !info.Torn || srv2.WAL().LastLSN() != committed {
		t.Fatalf("torn=%v, log at LSN %d: want the torn commit truncated back to LSN %d", info.Torn, srv2.WAL().LastLSN(), committed)
	}
	// Replayed counts operations, not records, and the torn
	// transaction contributes nothing.
	wantOps := len(tables) * perWriter * 2
	if info.Replayed != wantOps {
		t.Fatalf("Replayed = %d, want %d (2 ops per committed txn, torn commit dropped)", info.Replayed, wantOps)
	}

	// A second crash-free recovery is idempotent: replaying the same
	// committed prefix again lands on the same bytes.
	wantHealed := dbBytes(t, srv2)
	srv2.Close()
	srv3, _, err := Recover(durableCfg(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	if got := dbBytes(t, srv3); !bytes.Equal(got, wantHealed) {
		t.Fatal("second recovery diverges from first")
	}
}
