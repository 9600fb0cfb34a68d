package storage

import (
	"fmt"
	"testing"

	"xixa/internal/xmltree"
)

func doc(sym string, yield float64) *xmltree.Document {
	return xmltree.NewBuilder().
		Begin("Security").Leaf("Symbol", sym).LeafFloat("Yield", yield).End().
		Document()
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
	tbl := NewTable("SECURITY")
	id1 := tbl.Insert(doc("AAA", 1))
	id2 := tbl.Insert(doc("BBB", 2))
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
	if !tbl.Delete(id1) {
		t.Error("Delete failed")
	}
	if tbl.Delete(id1) {
		t.Error("double Delete succeeded")
	}
	if _, ok := tbl.Get(id1); ok {
		t.Error("Get after Delete succeeded")
	}
	if tbl.DocCount() != 1 {
		t.Errorf("DocCount after delete = %d", tbl.DocCount())
	}
}

func TestAccountingInvariants(t *testing.T) {
	tbl := NewTable("T")
	if tbl.NodeCount() != 0 || tbl.SizeBytes() != 0 {
		t.Fatal("empty table must have zero counters")
	}
	var ids []int64
	var nodes, bytes int64
	for i := 0; i < 10; i++ {
		d := doc(fmt.Sprintf("S%d", i), float64(i))
		nodes += int64(d.Len())
		bytes += d.StorageBytes()
		ids = append(ids, tbl.Insert(d))
	}
	if tbl.NodeCount() != nodes || tbl.SizeBytes() != bytes {
		t.Errorf("counters = (%d,%d), want (%d,%d)", tbl.NodeCount(), tbl.SizeBytes(), nodes, bytes)
	}
	for _, id := range ids {
		tbl.Delete(id)
	}
	if tbl.NodeCount() != 0 || tbl.SizeBytes() != 0 {
		t.Errorf("counters after deleting all = (%d,%d)", tbl.NodeCount(), tbl.SizeBytes())
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	tbl := NewTable("T")
	for i := 0; i < 5; i++ {
		tbl.Insert(doc(fmt.Sprintf("S%d", i), float64(i)))
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
	tbl := NewTable("T")
	v0 := tbl.Version()
	id := tbl.Insert(doc("A", 1))
	if tbl.Version() == v0 {
		t.Error("Version unchanged after insert")
	}
	v1 := tbl.Version()
	tbl.Delete(id)
	if tbl.Version() == v1 {
		t.Error("Version unchanged after delete")
	}
}

func TestHeavyDeleteKeepsScanOrder(t *testing.T) {
	tbl := NewTable("T")
	var ids []int64
	for i := 0; i < 500; i++ {
		ids = append(ids, tbl.Insert(doc(fmt.Sprintf("S%03d", i), float64(i))))
	}
	// Delete enough to trigger tombstone compaction (> half the order
	// slice), in a scattered pattern.
	for i := 0; i < 500; i++ {
		if i%3 != 1 {
			if !tbl.Delete(ids[i]) {
				t.Fatalf("delete %d failed", ids[i])
			}
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
	idNew := tbl.Insert(doc("ZZZ", 1))
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
	tbl := NewTable("T")
	id0 := tbl.Insert(doc("EARLY", 1))
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

	id1 := tbl.Insert(doc("A", 1))
	tbl.Replace(id1, doc("B", 1))
	tbl.Delete(id1)
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
	tbl := NewTable("T")
	id0 := tbl.Insert(doc("A", 1))
	id1 := tbl.Insert(doc("B", 2))
	tbl.Insert(doc("C", 3))

	old, _ := tbl.Get(id1)
	var got []Change
	tbl.Subscribe(func(c Change) { got = append(got, c) })

	if !tbl.Replace(id1, doc("BBBB", 9)) {
		t.Fatal("Replace reported missing doc")
	}
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
	if tbl.Replace(999, doc("X", 1)) {
		t.Fatal("Replace of missing doc succeeded")
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	tbl := NewTable("T")
	var a, b int
	subA := tbl.Subscribe(func(Change) { a++ })
	tbl.Subscribe(func(Change) { b++ })
	tbl.Insert(doc("A", 1))
	if !tbl.Unsubscribe(subA) {
		t.Fatal("Unsubscribe reported unknown handle")
	}
	if tbl.Unsubscribe(subA) {
		t.Fatal("double Unsubscribe succeeded")
	}
	tbl.Insert(doc("B", 2))
	if a != 1 || b != 2 {
		t.Fatalf("listener counts after unsubscribe: a=%d b=%d, want 1, 2", a, b)
	}
}

func TestReplaceAdjustsAccounting(t *testing.T) {
	tbl := NewTable("T")
	id := tbl.Insert(doc("A", 1))
	before := tbl.SizeBytes()
	tbl.Replace(id, doc("MUCHLONGERSYMBOL", 1))
	grown := tbl.SizeBytes()
	if grown <= before {
		t.Fatalf("SizeBytes %d did not grow past %d after value grew", grown, before)
	}
	tbl.Replace(id, doc("A", 1))
	if got := tbl.SizeBytes(); got != before {
		t.Fatalf("SizeBytes %d after shrinking back, want %d", got, before)
	}
}

func TestInsertAtPreservesIDs(t *testing.T) {
	tbl := NewTable("T")
	if err := tbl.InsertAt(doc("A", 1), 5); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertAt(doc("B", 2), 5); err == nil {
		t.Fatal("duplicate InsertAt succeeded")
	}
	if err := tbl.InsertAt(doc("C", 3), -1); err == nil {
		t.Fatal("negative InsertAt succeeded")
	}
	if d, ok := tbl.Get(5); !ok || d.DocID != 5 {
		t.Fatalf("Get(5) = %v, %v", d, ok)
	}
	// nextID advanced past the explicit ID.
	if id := tbl.Insert(doc("D", 4)); id != 6 {
		t.Fatalf("Insert after InsertAt(5) assigned %d, want 6", id)
	}
	tbl.SetNextID(100)
	if id := tbl.Insert(doc("E", 5)); id != 100 {
		t.Fatalf("Insert after SetNextID(100) assigned %d, want 100", id)
	}
	tbl.SetNextID(50) // never lowers
	if id := tbl.Insert(doc("F", 6)); id != 101 {
		t.Fatalf("SetNextID lowered nextID: got %d, want 101", id)
	}
}
