package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"xixa/internal/xmltree"
)

// symbolOf reads the Symbol leaf of a test document.
func symbolOf(d *xmltree.Document) string {
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if n.Kind == xmltree.Element && n.Name == "Symbol" {
			for c := n.ID + 1; c <= n.EndID; c = d.Nodes[c].EndID + 1 {
				if cn := d.Node(c); cn.Kind == xmltree.Text {
					return cn.Value
				}
			}
		}
	}
	return ""
}

func viewSymbols(v *TableView) []string {
	var out []string
	v.Scan(func(d *xmltree.Document) bool {
		out = append(out, symbolOf(d))
		return true
	})
	return out
}

func TestSnapshotVisibility(t *testing.T) {
	db := NewDatabase()
	tbl := db.MustCreateTable("SECURITY")
	idA := insert(t, db, tbl, doc("AAA", 1))
	idB := insert(t, db, tbl, doc("BBB", 2))

	snap := db.PinSnapshot()
	defer snap.Release()

	// Mutate after the pin: delete A, replace B, insert C.
	del(t, db, tbl, idA)
	replace(t, db, tbl, idB, doc("BBB2", 3))
	insert(t, db, tbl, doc("CCC", 4))

	v, err := snap.Table("SECURITY")
	if err != nil {
		t.Fatal(err)
	}
	got := viewSymbols(v)
	want := []string{"AAA", "BBB"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("snapshot scan = %v, want %v", got, want)
	}
	if d, ok := v.Get(idA); !ok || symbolOf(d) != "AAA" {
		t.Errorf("snapshot Get(deleted doc) = %v, %v", d, ok)
	}
	if d, ok := v.Get(idB); !ok || symbolOf(d) != "BBB" {
		t.Errorf("snapshot Get(replaced doc) = %v, %v", d, ok)
	}

	// The live table sees the new state.
	if _, ok := tbl.Get(idA); ok {
		t.Error("live Get of deleted doc succeeded")
	}
	if d, _ := tbl.Get(idB); symbolOf(d) != "BBB2" {
		t.Error("live table missing replacement")
	}

	// A snapshot pinned now sees the new state.
	snap2 := db.PinSnapshot()
	defer snap2.Release()
	v2, _ := snap2.Table("SECURITY")
	got2 := viewSymbols(v2)
	want2 := []string{"BBB2", "CCC"}
	if fmt.Sprint(got2) != fmt.Sprint(want2) {
		t.Errorf("fresh snapshot scan = %v, want %v", got2, want2)
	}
}

func TestCommitTxFirstWriterWins(t *testing.T) {
	db := NewDatabase()
	tbl := db.MustCreateTable("SECURITY")
	id := insert(t, db, tbl, doc("AAA", 1))

	s1 := db.PinSnapshot()
	s2 := db.PinSnapshot()
	defer s1.Release()
	defer s2.Release()

	ops1 := []TxOp{{Table: "SECURITY", Kind: TxReplace, DocID: id, Doc: doc("FROM-T1", 2)}}
	if _, _, err := db.CommitTx(s1.LSN(), ops1, nil); err != nil {
		t.Fatalf("first commit: %v", err)
	}

	ops2 := []TxOp{{Table: "SECURITY", Kind: TxReplace, DocID: id, Doc: doc("FROM-T2", 3)}}
	if _, _, err := db.CommitTx(s2.LSN(), ops2, nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("second commit err = %v, want ErrConflict", err)
	}
	if d, _ := tbl.Get(id); symbolOf(d) != "FROM-T1" {
		t.Errorf("loser overwrote winner: %s", symbolOf(d))
	}

	// Deleting a doc another transaction deleted is also a conflict.
	s3 := db.PinSnapshot()
	defer s3.Release()
	if _, _, err := db.CommitTx(s3.LSN(), []TxOp{{Table: "SECURITY", Kind: TxDelete, DocID: id}}, nil); err != nil {
		t.Fatalf("delete commit: %v", err)
	}
	if _, _, err := db.CommitTx(s3.LSN(), []TxOp{{Table: "SECURITY", Kind: TxDelete, DocID: id}}, nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("delete after delete err = %v, want ErrConflict", err)
	}
}

func TestCommitTxAtomicAcrossTables(t *testing.T) {
	db := NewDatabase()
	sec := db.MustCreateTable("SECURITY")
	ord := db.MustCreateTable("ORDERS")

	// Record the stamp every change carries: both tables' changes must
	// share one commit stamp.
	var stamps []uint64
	sec.Subscribe(func(c Change) { stamps = append(stamps, c.LSN) })
	ord.Subscribe(func(c Change) { stamps = append(stamps, c.LSN) })

	before := db.PinSnapshot()
	defer before.Release()

	snap := db.PinSnapshot()
	ops := []TxOp{
		{Table: "SECURITY", Kind: TxInsert, DocID: -1, Doc: doc("PAIRED", 1)},
		{Table: "ORDERS", Kind: TxInsert, DocID: -2, Doc: doc("PAIRED", 1)},
	}
	stamp, _, err := db.CommitTx(snap.LSN(), ops, nil)
	snap.Release()
	if err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 2 || stamps[0] != stamp || stamps[1] != stamp {
		t.Errorf("change stamps = %v, want both %d", stamps, stamp)
	}
	if ops[0].DocID < 0 || ops[1].DocID < 0 {
		t.Errorf("commit left provisional IDs: %d, %d", ops[0].DocID, ops[1].DocID)
	}

	// The pre-commit snapshot sees neither half; the live state both.
	vs, _ := before.Table("SECURITY")
	vo, _ := before.Table("ORDERS")
	if n := len(viewSymbols(vs)) + len(viewSymbols(vo)); n != 0 {
		t.Errorf("pre-commit snapshot sees %d docs of the transaction", n)
	}
	if sec.DocCount() != 1 || ord.DocCount() != 1 {
		t.Errorf("live counts = %d, %d", sec.DocCount(), ord.DocCount())
	}
}

func TestCommitTxAssignsIDsInCommitOrder(t *testing.T) {
	db := NewDatabase()
	tbl := db.MustCreateTable("SECURITY")

	const writers = 8
	var wg sync.WaitGroup
	type result struct{ stamp, id uint64 }
	results := make([]result, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			snap := db.PinSnapshot()
			defer snap.Release()
			ops := []TxOp{{Table: "SECURITY", Kind: TxInsert, DocID: -1, Doc: doc(fmt.Sprintf("W%d", w), 1)}}
			stamp, _, err := db.CommitTx(snap.LSN(), ops, nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = result{stamp: stamp, id: uint64(ops[0].DocID)}
		}(w)
	}
	wg.Wait()
	// Commit-stamp order must equal document-ID order: that is what
	// makes a serial replay of the committed sequence reproduce IDs.
	for i := range results {
		for j := range results {
			if results[i].stamp < results[j].stamp && results[i].id >= results[j].id {
				t.Fatalf("stamp order %d<%d but ID order %d>=%d",
					results[i].stamp, results[j].stamp, results[i].id, results[j].id)
			}
		}
	}
	if tbl.DocCount() != writers {
		t.Errorf("DocCount = %d", tbl.DocCount())
	}
}

func TestVersionChainsPruneWithoutPins(t *testing.T) {
	db := NewDatabase()
	tbl := db.MustCreateTable("SECURITY")
	// Churn: delete+insert pairs with no snapshot pinned. Chains and
	// order slots must stay bounded, not accumulate 2N versions.
	id := insert(t, db, tbl, doc("CHURN", 1))
	for i := 0; i < 5000; i++ {
		del(t, db, tbl, id)
		id = insert(t, db, tbl, doc("CHURN", float64(i)))
	}
	tbl.mu.RLock()
	chains, slots := len(tbl.heads), len(tbl.order)
	tbl.mu.RUnlock()
	if chains > 128 {
		t.Errorf("%d version chains survive churn with no pins", chains)
	}
	if slots > 4096 {
		t.Errorf("order slice grew to %d slots", slots)
	}
	// Replace churn: one document's chain must prune to ~1 version.
	for i := 0; i < 1000; i++ {
		replace(t, db, tbl, id, doc("CHURN", float64(i)))
	}
	tbl.mu.RLock()
	depth := 0
	for v := tbl.heads[id]; v != nil; v = v.prev {
		depth++
	}
	tbl.mu.RUnlock()
	if depth > 2 {
		t.Errorf("chain depth %d after replace churn with no pins", depth)
	}
}

func TestPinnedSnapshotBlocksSweep(t *testing.T) {
	db := NewDatabase()
	tbl := db.MustCreateTable("SECURITY")
	var ids []int64
	for i := 0; i < 200; i++ {
		ids = append(ids, insert(t, db, tbl, doc(fmt.Sprintf("S%03d", i), 1)))
	}
	snap := db.PinSnapshot()
	for _, id := range ids {
		del(t, db, tbl, id)
	}
	v, _ := snap.Table("SECURITY")
	if n := v.Scan(func(*xmltree.Document) bool { return true }); n != 200 {
		t.Errorf("pinned snapshot sees %d docs, want 200", n)
	}
	snap.Release()
	// With the pin gone the next mutation's sweep may collect; force
	// enough deletes to cross the sweep threshold again.
	for i := 0; i < 200; i++ {
		id := insert(t, db, tbl, doc("X", 1))
		del(t, db, tbl, id)
	}
	tbl.mu.RLock()
	chains := len(tbl.heads)
	tbl.mu.RUnlock()
	if chains > 128 {
		t.Errorf("%d chains survive after release", chains)
	}
}

// TestCommitTxReturnsOnlyOnceVisible pins the acknowledged-means-visible
// rule: a commit that finishes publishing while a smaller stamp is still
// in flight (here: parked inside its log append) must not return until
// the watermark covers it, or the committer's next snapshot would miss
// its own commit. Before the rule, two writers on disjoint documents
// could conflict with themselves (engine.TestTxnDeterminism failed about
// one run in three on a two-core box).
func TestCommitTxReturnsOnlyOnceVisible(t *testing.T) {
	db := NewDatabase()
	db.MustCreateTable("A")
	db.MustCreateTable("B")

	stamped, release := make(chan struct{}), make(chan struct{})
	slow := func([]TxOp) (func(uint64) (uint64, error), error) {
		return func(uint64) (uint64, error) {
			close(stamped) // the stamp is allocated; hold it unpublished
			<-release
			return 0, nil
		}, nil
	}
	slowDone := make(chan error, 1)
	go func() {
		_, _, err := db.CommitTx(db.Watermark(), []TxOp{{Table: "A", Kind: TxInsert, Doc: doc("SLOW", 1)}}, slow)
		slowDone <- err
	}()
	<-stamped

	type result struct {
		stamp uint64
		err   error
	}
	fastDone := make(chan result, 1)
	go func() {
		stamp, _, err := db.CommitTx(db.Watermark(), []TxOp{{Table: "B", Kind: TxInsert, Doc: doc("FAST", 2)}}, nil)
		fastDone <- result{stamp, err}
	}()
	select {
	case r := <-fastDone:
		t.Fatalf("commit %d returned (err %v) while the watermark was still %d", r.stamp, r.err, db.Watermark())
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
	r := <-fastDone
	if r.err != nil {
		t.Fatal(r.err)
	}
	snap := db.PinSnapshot()
	defer snap.Release()
	if snap.LSN() < r.stamp {
		t.Fatalf("snapshot pinned after the commit returned reads at %d, commit stamp %d", snap.LSN(), r.stamp)
	}
	if v, _ := snap.Table("B"); fmt.Sprint(viewSymbols(v)) != "[FAST]" {
		t.Errorf("acknowledged insert invisible to the next snapshot: %v", viewSymbols(v))
	}
}
