package engine

import (
	"fmt"
	"sync"
	"testing"

	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// matchFixture builds table T with n securities; every third is a bond
// and alone carries /s/info/bond/rating.
func matchFixture(t testing.TB, n int) (*storage.Table, *Engine) {
	t.Helper()
	db := storage.NewDatabase()
	tbl := db.MustCreateTable("T")
	for i := 0; i < n; i++ {
		info := fmt.Sprintf(`<stock><cap>%d</cap></stock>`, i)
		if i%3 == 0 {
			info = fmt.Sprintf(`<bond><rating>%s</rating></bond>`, []string{"AAA", "BB"}[i%2])
		}
		tbl.Insert(xmltree.MustParse(fmt.Sprintf(`<s id="%d"><sym>S%04d</sym><y>%d.5</y><info>%s</info></s>`, i, i, i%10, info)))
	}
	return tbl, New(db, optimizer.NewLive(db), NewCatalog())
}

// oracle evaluates the statement's normalized path over every document
// with the reference evaluator.
func oracle(tbl *storage.Table, stmt *xquery.Statement) (refs []string, nodes int64) {
	norm := stmt.NormalizedPath()
	tbl.Scan(func(d *xmltree.Document) bool {
		nodes += int64(d.Len())
		for _, id := range xpath.Eval(d, norm) {
			refs = append(refs, fmt.Sprintf("%d/%d", d.DocID, id))
		}
		return true
	})
	return refs, nodes
}

func execRefs(t testing.TB, eng *Engine, stmt *xquery.Statement) ([]string, Stats) {
	t.Helper()
	refs, st, err := eng.Execute(stmt)
	if err != nil {
		t.Fatalf("execute %q: %v", stmt.Raw, err)
	}
	var out []string
	for _, r := range refs {
		out = append(out, fmt.Sprintf("%d/%d", r.Doc, r.Node))
	}
	return out, st
}

// TestNodesScannedCountsNodesExamined pins Stats.NodesScanned on the
// scan path: a document rejected from its path summary adds nothing, a
// document the scan has to look into adds its nodes, and a mutation's
// match stops counting at the first hit.
func TestNodesScannedCountsNodesExamined(t *testing.T) {
	tbl, eng := matchFixture(t, 30)
	q := xquery.MustParse(`for $s in T('D')/s where $s/info/bond/rating = "AAA" return $s/sym`)
	want, all := oracle(tbl, q)
	got, st := execRefs(t, eng, q)
	if fmt.Sprint(got) != fmt.Sprint(want) || len(want) == 0 {
		t.Fatalf("query returned %v, oracle %v", got, want)
	}
	var bonds int64
	tbl.Scan(func(d *xmltree.Document) bool {
		if d.DocID%3 == 0 {
			bonds += int64(d.Len())
		}
		return true
	})
	if st.NodesScanned != bonds {
		t.Errorf("NodesScanned = %d, want the %d nodes of the bond documents (table has %d)", st.NodesScanned, bonds, all)
	}
	if st.ResultCount != int64(len(want)) {
		t.Errorf("ResultCount = %d, want %d", st.ResultCount, len(want))
	}

	// Every document has /s/y, so none is rejected unseen; the delete's
	// Exists stops at y, well before the end of each document.
	del := xquery.MustParse(`delete from T where /s[y>=0]`)
	_, dst, err := eng.Execute(del)
	if err != nil {
		t.Fatal(err)
	}
	if dst.DocsModified != 30 || dst.NodesScanned == 0 || dst.NodesScanned >= all {
		t.Errorf("delete modified %d documents scanning %d nodes; want 30 documents and fewer than the table's %d nodes", dst.DocsModified, dst.NodesScanned, all)
	}
}

// TestCachedProgramSeesDictionaryGrowth executes one statement template
// before and after an insert that introduces the very path the template
// tests: the cached program must follow the dictionary.
func TestCachedProgramSeesDictionaryGrowth(t *testing.T) {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable("T")
	for i := 0; i < 5; i++ {
		tbl.Insert(xmltree.MustParse(fmt.Sprintf(`<s><sym>S%d</sym></s>`, i)))
	}
	eng := New(db, optimizer.NewLive(db), NewCatalog())
	template := func(lit string) *xquery.Statement {
		return xquery.MustParse(fmt.Sprintf(`for $s in T('D')/s where $s/extra/tag = "%s" return $s`, lit))
	}
	if got, st := execRefs(t, eng, template("new")); len(got) != 0 || st.NodesScanned != 0 {
		t.Fatalf("before the path exists: %v, %d nodes scanned; want nothing and 0", got, st.NodesScanned)
	}
	paths := tbl.PathDict().Len()
	if _, _, err := eng.Execute(xquery.MustParse(`insert into T value <s><sym>S9</sym><extra><tag>new</tag></extra></s>`)); err != nil {
		t.Fatal(err)
	}
	if tbl.PathDict().Len() == paths {
		t.Fatal("the insert introduced no new path")
	}
	for _, lit := range []string{"new", "other"} {
		stmt := template(lit)
		want, _ := oracle(tbl, stmt)
		if got, _ := execRefs(t, eng, stmt); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("after the insert, literal %q: got %v, oracle %v", lit, got, want)
		}
	}

	// The same holds inside a transaction, whose own uncommitted insert
	// (not on the table's dictionary yet) is matched as well.
	tx := eng.Begin()
	defer tx.Rollback()
	if _, _, err := tx.Execute(xquery.MustParse(`insert into T value <s><extra><tag>new</tag><more/></extra></s>`)); err != nil {
		t.Fatal(err)
	}
	refs, _, err := tx.Execute(template("new"))
	if err != nil || len(refs) != 2 {
		t.Errorf("transaction sees %d matches (%v), want the committed and its own document", len(refs), err)
	}
}

// TestScanInsertStorm runs concurrent scans of one template against
// inserts that keep adding new paths to the table's dictionary. Each
// scan must see a consistent answer: the matching documents are only
// ever added, so a reader's counts never decrease, and the final answer
// equals the oracle's. Run under -race this is the check that growing a
// program's tables does not race with scans holding the older ones.
func TestScanInsertStorm(t *testing.T) {
	tbl, eng := matchFixture(t, 60)
	const writers, perWriter, readers = 2, 60, 4
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// A fresh element name per insert: a new dictionary
				// path every time, under and beside the tested one.
				raw := fmt.Sprintf(`insert into T value <s><sym>W%d-%d</sym><y>7.5</y><info><bond><rating>AAA</rating><n%d_%d/></bond><m%d_%d/></info></s>`, w, i, w, i, w, i)
				if _, _, err := eng.Execute(xquery.MustParse(raw)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				lit := []string{"AAA", "BB"}[r%2]
				stmt := xquery.MustParse(fmt.Sprintf(`for $s in T('D')/s[y>=0] where $s/info/bond/rating = "%s" return $s`, lit))
				refs, _, err := eng.Execute(stmt)
				if err != nil {
					t.Error(err)
					return
				}
				if len(refs) < last {
					t.Errorf("reader %d: matches went from %d to %d while documents were only inserted", r, last, len(refs))
					return
				}
				last = len(refs)
			}
		}(r)
	}
	wg.Wait()
	close(done)
	rg.Wait()
	stmt := xquery.MustParse(`for $s in T('D')/s[y>=0] where $s/info/bond/rating = "AAA" return $s`)
	want, _ := oracle(tbl, stmt)
	got, _ := execRefs(t, eng, stmt)
	if fmt.Sprint(got) != fmt.Sprint(want) || len(want) != 10+writers*perWriter {
		t.Errorf("after the storm: %d matches, oracle %d, want %d", len(got), len(want), 10+writers*perWriter)
	}
}
