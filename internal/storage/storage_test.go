package storage

import (
	"errors"
	"fmt"
	"testing"

	"xixa/internal/xmltree"
)

func doc(sym string, yield float64) *xmltree.Document {
	return xmltree.NewBuilder().
		Begin("Security").Leaf("Symbol", sym).LeafFloat("Yield", yield).End().
		Document()
}

// newTable creates a database holding one empty table.
func newTable(name string) (*Database, *Table) {
	db := NewDatabase()
	return db, db.MustCreateTable(name)
}

// commit runs ops as one transaction at the current watermark,
// returning its error.
func commit(db *Database, ops ...TxOp) error {
	_, _, err := db.CommitTx(db.Watermark(), ops, nil)
	return err
}

// insert loads one document into tbl and returns its ID.
func insert(t testing.TB, db *Database, tbl *Table, d *xmltree.Document) int64 {
	t.Helper()
	ids, err := db.Load(tbl.Name, d)
	if err != nil {
		t.Fatal(err)
	}
	return ids[0]
}

// del deletes one document, failing the test on error.
func del(t testing.TB, db *Database, tbl *Table, id int64) {
	t.Helper()
	if err := commit(db, TxOp{Table: tbl.Name, Kind: TxDelete, DocID: id}); err != nil {
		t.Fatal(err)
	}
}

// replace swaps one document, failing the test on error.
func replace(t testing.TB, db *Database, tbl *Table, id int64, d *xmltree.Document) {
	t.Helper()
	if err := commit(db, TxOp{Table: tbl.Name, Kind: TxReplace, DocID: id, Doc: d}); err != nil {
		t.Fatal(err)
	}
}

func TestCreateAndLookupTables(t *testing.T) {
	db := NewDatabase()
	if _, err := db.CreateTable("SECURITY"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := db.CreateTable("SECURITY"); err == nil {
		t.Error("duplicate CreateTable succeeded")
	}
	if _, err := db.Table("SECURITY"); err != nil {
		t.Errorf("Table lookup: %v", err)
	}
	if _, err := db.Table("MISSING"); err == nil {
		t.Error("lookup of missing table succeeded")
	}
	db.MustCreateTable("ORDERS")
	names := db.TableNames()
	if len(names) != 2 || names[0] != "ORDERS" || names[1] != "SECURITY" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestInsertGetDelete(t *testing.T) {
	db, tbl := newTable("SECURITY")
	id1 := insert(t, db, tbl, doc("AAA", 1))
	id2 := insert(t, db, tbl, doc("BBB", 2))
	if id1 == id2 {
		t.Fatal("duplicate doc IDs assigned")
	}
	if tbl.DocCount() != 2 {
		t.Errorf("DocCount = %d", tbl.DocCount())
	}
	d, ok := tbl.Get(id1)
	if !ok || d.DocID != id1 {
		t.Errorf("Get(%d) = %v, %v", id1, d, ok)
	}
	del(t, db, tbl, id1)
	if err := commit(db, TxOp{Table: tbl.Name, Kind: TxDelete, DocID: id1}); !errors.Is(err, ErrConflict) {
		t.Errorf("double Delete: err = %v, want ErrConflict", err)
	}
	if _, ok := tbl.Get(id1); ok {
		t.Error("Get after Delete succeeded")
	}
	if tbl.DocCount() != 1 {
		t.Errorf("DocCount after delete = %d", tbl.DocCount())
	}
}

func TestAccountingInvariants(t *testing.T) {
	db, tbl := newTable("T")
	if tbl.NodeCount() != 0 || tbl.SizeBytes() != 0 {
		t.Fatal("empty table must have zero counters")
	}
	var ids []int64
	var nodes, bytes int64
	for i := 0; i < 10; i++ {
		d := doc(fmt.Sprintf("S%d", i), float64(i))
		nodes += int64(d.Len())
		bytes += d.StorageBytes()
		ids = append(ids, insert(t, db, tbl, d))
	}
	if tbl.NodeCount() != nodes || tbl.SizeBytes() != bytes {
		t.Errorf("counters = (%d,%d), want (%d,%d)", tbl.NodeCount(), tbl.SizeBytes(), nodes, bytes)
	}
	for _, id := range ids {
		del(t, db, tbl, id)
	}
	if tbl.NodeCount() != 0 || tbl.SizeBytes() != 0 {
		t.Errorf("counters after deleting all = (%d,%d)", tbl.NodeCount(), tbl.SizeBytes())
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	db, tbl := newTable("T")
	for i := 0; i < 5; i++ {
		insert(t, db, tbl, doc(fmt.Sprintf("S%d", i), float64(i)))
	}
	var seen []string
	tbl.Scan(func(d *xmltree.Document) bool {
		seen = append(seen, d.Nodes[2].Value) // Symbol text node
		return true
	})
	for i, s := range seen {
		if s != fmt.Sprintf("S%d", i) {
			t.Fatalf("scan order broken: %v", seen)
		}
	}
	count := 0
	visited := tbl.Scan(func(*xmltree.Document) bool {
		count++
		return count < 2
	})
	if visited != 2 {
		t.Errorf("early stop visited %d", visited)
	}
}

func TestVersionBumps(t *testing.T) {
	db, tbl := newTable("T")
	v0 := tbl.Version()
	id := insert(t, db, tbl, doc("A", 1))
	if tbl.Version() == v0 {
		t.Error("Version unchanged after insert")
	}
	v1 := tbl.Version()
	del(t, db, tbl, id)
	if tbl.Version() == v1 {
		t.Error("Version unchanged after delete")
	}
}

func TestHeavyDeleteKeepsScanOrder(t *testing.T) {
	db, tbl := newTable("T")
	var ids []int64
	for i := 0; i < 500; i++ {
		ids = append(ids, insert(t, db, tbl, doc(fmt.Sprintf("S%03d", i), float64(i))))
	}
	// Delete enough to trigger tombstone compaction (> half the order
	// slice), in a scattered pattern.
	for i := 0; i < 500; i++ {
		if i%3 != 1 {
			del(t, db, tbl, ids[i])
		}
	}
	var seen []string
	tbl.Scan(func(d *xmltree.Document) bool {
		seen = append(seen, d.Nodes[2].Value)
		return true
	})
	if len(seen) != tbl.DocCount() {
		t.Fatalf("scan visited %d docs, DocCount %d", len(seen), tbl.DocCount())
	}
	for i := 0; i < len(seen); i++ {
		want := fmt.Sprintf("S%03d", 3*i+1)
		if seen[i] != want {
			t.Fatalf("insertion order broken after compaction: seen[%d] = %s, want %s", i, seen[i], want)
		}
	}
	// Inserts after compaction land at the end, in order.
	idNew := insert(t, db, tbl, doc("ZZZ", 1))
	last := ""
	tbl.Scan(func(d *xmltree.Document) bool {
		last = d.Nodes[2].Value
		return true
	})
	if last != "ZZZ" {
		t.Fatalf("post-compaction insert not last in scan: %q", last)
	}
	if _, ok := tbl.Get(idNew); !ok {
		t.Fatal("post-compaction Get failed")
	}
}

func TestChangeFeed(t *testing.T) {
	db, tbl := newTable("T")
	id0 := insert(t, db, tbl, doc("EARLY", 1))
	var got []Change
	version, _ := tbl.SubscribeScan(func(c Change) { got = append(got, c) },
		func(d *xmltree.Document) {
			if d.DocID != id0 {
				t.Errorf("init saw doc %d, want %d", d.DocID, id0)
			}
		})
	if version != tbl.Version() {
		t.Fatalf("SubscribeScan version %d, table version %d", version, tbl.Version())
	}

	id1 := insert(t, db, tbl, doc("A", 1))
	replace(t, db, tbl, id1, doc("B", 1))
	del(t, db, tbl, id1)
	want := []ChangeKind{DocInserted, DocRemoved, DocInserted, DocRemoved}
	if len(got) != len(want) {
		t.Fatalf("saw %d changes, want %d", len(got), len(want))
	}
	lastVersion := version
	for i, c := range got {
		if c.Kind != want[i] {
			t.Errorf("change %d kind %v, want %v", i, c.Kind, want[i])
		}
		if c.Doc == nil || c.Doc.DocID != id1 {
			t.Errorf("change %d doc = %v", i, c.Doc)
		}
		if c.Version <= lastVersion {
			t.Errorf("change %d version %d did not advance past %d", i, c.Version, lastVersion)
		}
		lastVersion = c.Version
	}
	if lastVersion != tbl.Version() {
		t.Errorf("final change version %d, table version %d", lastVersion, tbl.Version())
	}
}

func TestReplaceKeepsIdentityAndOrder(t *testing.T) {
	db, tbl := newTable("T")
	id0 := insert(t, db, tbl, doc("A", 1))
	id1 := insert(t, db, tbl, doc("B", 2))
	insert(t, db, tbl, doc("C", 3))

	old, _ := tbl.Get(id1)
	var got []Change
	tbl.Subscribe(func(c Change) { got = append(got, c) })

	replace(t, db, tbl, id1, doc("BBBB", 9))
	// Old pointer is untouched (copy-on-write): readers holding it keep
	// seeing the pre-image.
	if old.Nodes[2].Value != "B" {
		t.Fatalf("old document mutated: %q", old.Nodes[2].Value)
	}
	cur, ok := tbl.Get(id1)
	if !ok || cur.Nodes[2].Value != "BBBB" || cur.DocID != id1 {
		t.Fatalf("replacement not visible under old ID: %+v", cur)
	}
	// Feed saw remove(old) + insert(new).
	if len(got) != 2 || got[0].Kind != DocRemoved || got[1].Kind != DocInserted ||
		got[0].Doc != old || got[1].Doc != cur {
		t.Fatalf("feed events wrong: %+v", got)
	}
	// Insertion-order position is preserved.
	var order []int64
	tbl.Scan(func(d *xmltree.Document) bool { order = append(order, d.DocID); return true })
	if len(order) != 3 || order[0] != id0 || order[1] != id1 {
		t.Fatalf("scan order after Replace: %v", order)
	}
	if err := commit(db, TxOp{Table: tbl.Name, Kind: TxReplace, DocID: 999, Doc: doc("X", 1)}); !errors.Is(err, ErrConflict) {
		t.Fatalf("Replace of missing doc: err = %v, want ErrConflict", err)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	db, tbl := newTable("T")
	var a, b int
	subA := tbl.Subscribe(func(Change) { a++ })
	tbl.Subscribe(func(Change) { b++ })
	insert(t, db, tbl, doc("A", 1))
	if !tbl.Unsubscribe(subA) {
		t.Fatal("Unsubscribe reported unknown handle")
	}
	if tbl.Unsubscribe(subA) {
		t.Fatal("double Unsubscribe succeeded")
	}
	insert(t, db, tbl, doc("B", 2))
	if a != 1 || b != 2 {
		t.Fatalf("listener counts after unsubscribe: a=%d b=%d, want 1, 2", a, b)
	}
}

func TestReplaceAdjustsAccounting(t *testing.T) {
	db, tbl := newTable("T")
	id := insert(t, db, tbl, doc("A", 1))
	before := tbl.SizeBytes()
	replace(t, db, tbl, id, doc("MUCHLONGERSYMBOL", 1))
	grown := tbl.SizeBytes()
	if grown <= before {
		t.Fatalf("SizeBytes %d did not grow past %d after value grew", grown, before)
	}
	replace(t, db, tbl, id, doc("A", 1))
	if got := tbl.SizeBytes(); got != before {
		t.Fatalf("SizeBytes %d after shrinking back, want %d", got, before)
	}
}

// TestApplyCommittedPreservesIDs: replay (and checkpoint load) restores
// documents under explicit IDs, rejects colliding and negative ones, and
// raises nextID past the restored ID; SetNextID only ever raises it.
func TestApplyCommittedPreservesIDs(t *testing.T) {
	db, tbl := newTable("T")
	at := func(stamp uint64, d *xmltree.Document, id int64) error {
		return db.ApplyCommitted(stamp, []TxOp{{Table: "T", Kind: TxInsert, DocID: id, Doc: d}})
	}
	if err := at(1, doc("A", 1), 5); err != nil {
		t.Fatal(err)
	}
	if err := at(2, doc("B", 2), 5); err == nil {
		t.Fatal("duplicate replay insert succeeded")
	}
	if err := at(2, doc("C", 3), -1); err == nil {
		t.Fatal("negative replay insert succeeded")
	}
	if d, ok := tbl.Get(5); !ok || d.DocID != 5 {
		t.Fatalf("Get(5) = %v, %v", d, ok)
	}
	// nextID advanced past the explicit ID.
	if id := insert(t, db, tbl, doc("D", 4)); id != 6 {
		t.Fatalf("insert after replaying ID 5 assigned %d, want 6", id)
	}
	tbl.SetNextID(100)
	if id := insert(t, db, tbl, doc("E", 5)); id != 100 {
		t.Fatalf("insert after SetNextID(100) assigned %d, want 100", id)
	}
	tbl.SetNextID(50) // never lowers
	if id := insert(t, db, tbl, doc("F", 6)); id != 101 {
		t.Fatalf("SetNextID lowered nextID: got %d, want 101", id)
	}
}

// TestApplyCommittedEmptyAdvancesWatermark: an empty replayed write set
// still moves the watermark to its stamp — a checkpoint of empty tables
// loads at its own stamp.
func TestApplyCommittedEmptyAdvancesWatermark(t *testing.T) {
	db := NewDatabase()
	if err := db.ApplyCommitted(7, nil); err != nil {
		t.Fatal(err)
	}
	if w := db.Watermark(); w != 7 {
		t.Fatalf("watermark %d after empty ApplyCommitted(7), want 7", w)
	}
	db.MustCreateTable("T")
	if stamp, _, err := db.CommitTx(db.Watermark(), []TxOp{{Table: "T", Kind: TxInsert, Doc: doc("A", 1)}}, nil); err != nil || stamp != 8 {
		t.Fatalf("next commit: stamp %d, err %v; want 8", stamp, err)
	}
}

// TestLoadIsOneCommit: Load assigns IDs in argument order under a
// single stamp, and fails on a missing table.
func TestLoadIsOneCommit(t *testing.T) {
	db, tbl := newTable("T")
	var stamps []uint64
	tbl.Subscribe(func(c Change) { stamps = append(stamps, c.LSN) })
	ids, err := db.Load("T", doc("A", 1), doc("B", 2), doc("C", 3))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != "[0 1 2]" {
		t.Fatalf("ids = %v, want [0 1 2]", ids)
	}
	if fmt.Sprint(stamps) != "[1 1 1]" || db.Watermark() != 1 {
		t.Fatalf("change stamps %v, watermark %d; want one commit at stamp 1", stamps, db.Watermark())
	}
	if _, err := db.Load("MISSING", doc("X", 1)); err == nil {
		t.Fatal("Load into a missing table succeeded")
	}
}
