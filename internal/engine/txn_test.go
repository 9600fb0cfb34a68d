package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"xixa/internal/optimizer"
	"xixa/internal/persist"
	"xixa/internal/storage"
	"xixa/internal/xquery"
)

// txnFixture builds a multi-table database: each named table gets n
// seed documents with symbols T<table>-S<i>.
func txnFixture(t testing.TB, tables []string, n int) (*storage.Database, *Engine) {
	t.Helper()
	db := storage.NewDatabase()
	for ti, name := range tables {
		db.MustCreateTable(name)
		for i := 0; i < n; i++ {
			raw := fmt.Sprintf(
				`insert into %s value <Security><Symbol>T%d-S%04d</Symbol><Yield>%d.%d</Yield></Security>`,
				name, ti, i, i%12, i%10)
			stmt := xquery.MustParse(raw)
			if _, err := db.Load(name, stmt.Doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	opt := optimizer.NewLive(db)
	return db, New(db, opt, NewCatalog())
}

func dbBytes(t testing.TB, db *storage.Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.SaveDatabase(&buf, db, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func txnExec(t testing.TB, tx *Txn, raw string) ([]int64, Stats) {
	t.Helper()
	refs, st, err := tx.Execute(xquery.MustParse(raw))
	if err != nil {
		t.Fatalf("txn execute %q: %v", raw, err)
	}
	var docs []int64
	for _, r := range refs {
		docs = append(docs, r.Doc)
	}
	return docs, st
}

func TestTxnReadYourOwnWrites(t *testing.T) {
	_, eng := txnFixture(t, []string{"SECURITY"}, 10)

	tx := eng.Begin()
	defer tx.Rollback()

	// Uncommitted insert is visible inside the transaction only.
	txnExec(t, tx, `insert into SECURITY value <Security><Symbol>MINE</Symbol><Yield>1.5</Yield></Security>`)
	if docs, _ := txnExec(t, tx, `for $s in SECURITY('SDOC')/Security where $s/Symbol = "MINE" return $s`); len(docs) != 1 {
		t.Fatalf("txn does not see its own insert: %v", docs)
	}
	if refs, _, err := eng.Execute(xquery.MustParse(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "MINE" return $s`)); err != nil || len(refs) != 0 {
		t.Fatalf("uncommitted insert leaked to live execution: %v, %v", refs, err)
	}

	// Update of a snapshot doc is visible through the overlay.
	txnExec(t, tx, `update SECURITY set Yield = 99.5 where /Security[Symbol="T0-S0003"]`)
	if docs, _ := txnExec(t, tx, `for $s in SECURITY('SDOC')/Security where $s/Yield > 90.0 return $s`); len(docs) != 1 {
		t.Fatalf("txn does not see its own update: %v", docs)
	}

	// Delete hides the doc inside the transaction.
	txnExec(t, tx, `delete from SECURITY where /Security[Symbol="T0-S0005"]`)
	if docs, _ := txnExec(t, tx, `for $s in SECURITY('SDOC')/Security where $s/Symbol = "T0-S0005" return $s`); len(docs) != 0 {
		t.Fatalf("txn sees its own delete victim: %v", docs)
	}

	// Deleting an uncommitted insert cancels it entirely.
	txnExec(t, tx, `delete from SECURITY where /Security[Symbol="MINE"]`)

	info, err := tx.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Stamp == 0 {
		t.Fatal("commit of non-empty txn returned stamp 0")
	}

	// Live state: update applied, delete applied, cancelled insert gone.
	if refs, _, _ := eng.Execute(xquery.MustParse(`for $s in SECURITY('SDOC')/Security where $s/Yield > 90.0 return $s`)); len(refs) != 1 {
		t.Errorf("committed update not live: %v", refs)
	}
	if refs, _, _ := eng.Execute(xquery.MustParse(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "T0-S0005" return $s`)); len(refs) != 0 {
		t.Errorf("committed delete not live: %v", refs)
	}
	if refs, _, _ := eng.Execute(xquery.MustParse(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "MINE" return $s`)); len(refs) != 0 {
		t.Errorf("cancelled insert committed anyway: %v", refs)
	}
}

func TestTxnIsolationFromConcurrentCommits(t *testing.T) {
	_, eng := txnFixture(t, []string{"SECURITY"}, 5)

	tx := eng.Begin()
	defer tx.Rollback()
	if docs, _ := txnExec(t, tx, `for $s in SECURITY('SDOC')/Security return $s`); len(docs) != 5 {
		t.Fatalf("snapshot sees %d docs", len(docs))
	}

	// Another transaction commits an insert; the open snapshot must not
	// observe it.
	other := eng.Begin()
	txnExec(t, other, `insert into SECURITY value <Security><Symbol>AFTER</Symbol><Yield>2.0</Yield></Security>`)
	if _, err := other.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if docs, _ := txnExec(t, tx, `for $s in SECURITY('SDOC')/Security return $s`); len(docs) != 5 {
		t.Fatalf("open snapshot sees concurrent commit: %d docs", len(docs))
	}
	tx.Rollback()

	// Rollback left no trace beyond the other txn's committed insert.
	tx2 := eng.Begin()
	defer tx2.Rollback()
	if docs, _ := txnExec(t, tx2, `for $s in SECURITY('SDOC')/Security return $s`); len(docs) != 6 {
		t.Fatalf("fresh snapshot sees %d docs, want 6", len(docs))
	}
}

func TestTxnConflictFirstWriterWins(t *testing.T) {
	_, eng := txnFixture(t, []string{"SECURITY"}, 5)

	t1 := eng.Begin()
	t2 := eng.Begin()
	txnExec(t, t1, `update SECURITY set Yield = 11.0 where /Security[Symbol="T0-S0002"]`)
	txnExec(t, t2, `update SECURITY set Yield = 22.0 where /Security[Symbol="T0-S0002"]`)

	if _, err := t1.Commit(nil); err != nil {
		t.Fatalf("first committer: %v", err)
	}
	if _, err := t2.Commit(nil); !errors.Is(err, storage.ErrConflict) {
		t.Fatalf("second committer err = %v, want ErrConflict", err)
	}

	// The winner's value survives.
	refs, _, err := eng.Execute(xquery.MustParse(`for $s in SECURITY('SDOC')/Security where $s/Yield > 20.0 return $s`))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 0 {
		t.Fatalf("loser's write visible: %v", refs)
	}

	// Disjoint documents do not conflict.
	t3 := eng.Begin()
	t4 := eng.Begin()
	txnExec(t, t3, `update SECURITY set Yield = 33.0 where /Security[Symbol="T0-S0000"]`)
	txnExec(t, t4, `update SECURITY set Yield = 44.0 where /Security[Symbol="T0-S0001"]`)
	if _, err := t3.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := t4.Commit(nil); err != nil {
		t.Fatalf("disjoint txn conflicted: %v", err)
	}
}

// TestTxnDeterminism is the engine-level determinism proof: concurrent
// transactions on disjoint keys commit in some stamp order; serially
// re-executing the same statements in that stamp order on a fresh copy
// of the seed must produce a bit-identical database image (including
// document IDs and per-table ID counters).
func TestTxnDeterminism(t *testing.T) {
	tables := []string{"SECURITY", "ORDERS", "CUSTACC", "HOLDINGS"}
	const writers = 8
	const txnsPerWriter = 25

	db, eng := txnFixture(t, tables, 40)

	type committed struct {
		stamp uint64
		stmts []string
	}
	var mu sync.Mutex
	var log []committed

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			table := tables[w%len(tables)]
			// Disjoint key ranges: writer w owns seed docs [w*5, w*5+5)
			// of its table and its own symbol namespace for inserts.
			for i := 0; i < txnsPerWriter; i++ {
				var stmts []string
				switch i % 3 {
				case 0:
					stmts = []string{fmt.Sprintf(
						`insert into %s value <Security><Symbol>W%d-N%03d</Symbol><Yield>%d.%d</Yield></Security>`,
						table, w, i, i%9, i%10)}
				case 1:
					stmts = []string{fmt.Sprintf(
						`update %s set Yield = %d.5 where /Security[Symbol="T%d-S%04d"]`,
						table, 50+i, w%len(tables), w*5+i%5)}
				default:
					// Multi-statement transaction: insert then update it.
					sym := fmt.Sprintf("W%d-M%03d", w, i)
					stmts = []string{
						fmt.Sprintf(`insert into %s value <Security><Symbol>%s</Symbol><Yield>0.1</Yield></Security>`, table, sym),
						fmt.Sprintf(`update %s set Yield = 77.7 where /Security[Symbol="%s"]`, table, sym),
					}
				}
				tx := eng.Begin()
				for _, raw := range stmts {
					if _, _, err := tx.Execute(xquery.MustParse(raw)); err != nil {
						t.Error(err)
						tx.Rollback()
						return
					}
				}
				info, err := tx.Commit(nil)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				log = append(log, committed{stamp: info.Stamp, stmts: stmts})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	concurrentImage := dbBytes(t, db)

	// Serial replay: same seed, same statements, stamp order, one at a
	// time through the plain (non-transactional) engine path.
	sort.Slice(log, func(i, j int) bool { return log[i].stamp < log[j].stamp })
	for i := 1; i < len(log); i++ {
		if log[i].stamp == log[i-1].stamp {
			t.Fatalf("duplicate commit stamp %d", log[i].stamp)
		}
	}
	replayDB, replayEng := txnFixture(t, tables, 40)
	for _, c := range log {
		for _, raw := range c.stmts {
			if _, _, err := replayEng.Execute(xquery.MustParse(raw)); err != nil {
				t.Fatal(err)
			}
		}
	}
	serialImage := dbBytes(t, replayDB)

	if !bytes.Equal(concurrentImage, serialImage) {
		t.Fatalf("concurrent image (%d bytes) differs from serial replay in stamp order (%d bytes)",
			len(concurrentImage), len(serialImage))
	}
}
