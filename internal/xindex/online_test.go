package xindex

import (
	"fmt"
	"sync"
	"testing"

	"xixa/internal/storage"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

func soakDoc(symbol string, yield float64) *xmltree.Document {
	return xmltree.NewBuilder().
		Begin("Security").
		Leaf("Symbol", symbol).
		LeafFloat("Yield", yield).
		Begin("SecInfo").Begin("StockInformation").
		Leaf("Sector", "Soak").
		End().End().
		End().Document()
}

// newTable creates a database holding one empty table.
func newTable(name string) (*storage.Database, *storage.Table) {
	db := storage.NewDatabase()
	return db, db.MustCreateTable(name)
}

// insert commits docs into table and returns the first one's ID.
func insert(t testing.TB, db *storage.Database, table string, docs ...*xmltree.Document) int64 {
	t.Helper()
	ids, err := db.Load(table, docs...)
	if err != nil {
		t.Fatal(err)
	}
	return ids[0]
}

// commit runs ops as one transaction at the current watermark.
func commit(db *storage.Database, ops ...storage.TxOp) error {
	_, _, err := db.CommitTx(db.Watermark(), ops, nil)
	return err
}

// dump renders the index's full content in canonical order for
// bit-identical comparison.
func dump(x *Index) []string {
	var out []string
	x.Walk(func(key []byte, ref Ref) bool {
		out = append(out, fmt.Sprintf("%x|%d|%d", key, ref.Doc, ref.Node))
		return true
	})
	return out
}

func assertIdentical(t *testing.T, tbl *storage.Table, online *Index) {
	t.Helper()
	cold, err := Build(tbl, online.Def)
	if err != nil {
		t.Fatal(err)
	}
	got, want := dump(online), dump(cold)
	if len(got) != len(want) {
		t.Fatalf("%s: online index has %d entries, cold build %d (table version %d)",
			online.Def, len(got), len(want), tbl.Version())
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d diverges: online %s, cold %s", online.Def, i, got[i], want[i])
		}
	}
}

// TestOnlineBuildSoak storms inserts, copy-on-write updates, and
// deletes at a table while indexes build online, then asserts each
// swapped-in index is bit-identical to a cold Build at the same table
// version. Run under -race in CI, this is the online build's
// correctness soak: the capture/buffer/catch-up state machine must
// lose no event and double-apply none, under real concurrency.
func TestOnlineBuildSoak(t *testing.T) {
	db, tbl := newTable("SECURITY")
	const seed = 300
	for i := 0; i < seed; i++ {
		insert(t, db, "SECURITY", soakDoc(fmt.Sprintf("S%05d", i), float64(i%100)/10))
	}

	const (
		writers = 3
		ops     = 800
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer only deletes and replaces documents it
			// inserted itself, so no commit can conflict.
			var mine []int64 // storm docs this writer owns
			for i := 0; i < ops; i++ {
				op := storage.TxOp{Table: "SECURITY", Kind: storage.TxInsert, Doc: soakDoc(fmt.Sprintf("W%d-%05d", w, i), float64(i%55)/5)}
				switch {
				case i%4 == 3 && len(mine) > 0:
					// Delete an owned storm doc.
					op = storage.TxOp{Table: "SECURITY", Kind: storage.TxDelete, DocID: mine[0]}
					mine = mine[1:]
				case i%4 == 2 && len(mine) > 0:
					// Copy-on-write update: replace with a new document
					// under the same ID, yield changed.
					op = storage.TxOp{Table: "SECURITY", Kind: storage.TxReplace, DocID: mine[len(mine)-1],
						Doc: soakDoc(fmt.Sprintf("W%d-%05d", w, i), float64(i%77)/7)}
				}
				tx := []storage.TxOp{op}
				if err := commit(db, tx...); err != nil {
					t.Error(err)
					return
				}
				if op.Kind == storage.TxInsert {
					mine = append(mine, tx[0].DocID)
				}
			}
		}(w)
	}

	defs := []Definition{
		{Table: "SECURITY", Pattern: xpath.MustParsePattern("/Security/Symbol"), Type: xpath.StringVal},
		{Table: "SECURITY", Pattern: xpath.MustParsePattern("/Security/Yield"), Type: xpath.NumberVal},
	}
	var online []*Index
	for _, def := range defs {
		idx, err := BuildOnline(tbl, def)
		if err != nil {
			t.Fatal(err)
		}
		if !idx.SelfMaintained() {
			t.Fatal("online index does not report SelfMaintained")
		}
		online = append(online, idx)
	}

	wg.Wait()

	// Quiesced: the feed is synchronous, so the online indexes are
	// current. Each must match a cold build bit for bit.
	for _, idx := range online {
		assertIdentical(t, tbl, idx)
	}

	// Released indexes stop tracking the table.
	released := online[0]
	before := released.Entries()
	released.Release()
	released.Release() // idempotent
	insert(t, db, "SECURITY", soakDoc("AFTERRELEASE", 1.5))
	if released.Entries() != before {
		t.Fatal("released index still maintained from the feed")
	}
	// The still-subscribed index keeps tracking.
	assertIdentical(t, tbl, online[1])
	online[1].Release()
}

// TestBuildOnlineQuietTable checks the degenerate case: with no
// concurrent writers, BuildOnline equals Build exactly and flips to
// direct maintenance.
func TestBuildOnlineQuietTable(t *testing.T) {
	db, tbl := newTable("SECURITY")
	for i := 0; i < 50; i++ {
		insert(t, db, "SECURITY", soakDoc(fmt.Sprintf("S%03d", i), float64(i)))
	}
	def := Definition{Table: "SECURITY", Pattern: xpath.MustParsePattern("/Security/Symbol"), Type: xpath.StringVal}
	idx, err := BuildOnline(tbl, def)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Release()
	assertIdentical(t, tbl, idx)

	// Post-build mutations apply directly.
	id := insert(t, db, "SECURITY", soakDoc("ZZZ", 9.9))
	if err := commit(db, storage.TxOp{Table: "SECURITY", Kind: storage.TxReplace, DocID: id, Doc: soakDoc("ZZY", 8.8)}); err != nil {
		t.Fatal(err)
	}
	if err := commit(db, storage.TxOp{Table: "SECURITY", Kind: storage.TxDelete, DocID: 0}); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, tbl, idx)
}

// TestManagerLifecycle exercises EnsureBuilt / DropDeferred / Reconcile
// against a toy catalog with a drain barrier, asserting the release
// happens only after the drain.
func TestManagerLifecycle(t *testing.T) {
	db := storage.NewDatabase()
	db.MustCreateTable("SECURITY")
	for i := 0; i < 40; i++ {
		insert(t, db, "SECURITY", soakDoc(fmt.Sprintf("S%03d", i), float64(i)))
	}
	cat := &mapCatalog{m: make(map[string]*Index)}
	drained := 0
	mgr := NewManager(db, cat, func() { drained++ })

	def := Definition{Table: "SECURITY", Pattern: xpath.MustParsePattern("/Security/Symbol"), Type: xpath.StringVal}
	built, err := mgr.EnsureBuilt(def)
	if err != nil || !built {
		t.Fatalf("EnsureBuilt = %v, %v", built, err)
	}
	if built, _ := mgr.EnsureBuilt(def); built {
		t.Fatal("EnsureBuilt rebuilt an existing index")
	}
	idx, _ := cat.Get(def)
	if idx == nil || idx.Entries() != 40 {
		t.Fatalf("catalog index = %v", idx)
	}

	if !mgr.DropDeferred(def) {
		t.Fatal("DropDeferred missed the index")
	}
	if drained != 1 {
		t.Fatalf("drain barrier ran %d times, want 1", drained)
	}
	if _, ok := cat.Get(def); ok {
		t.Fatal("dropped index still in catalog")
	}
	// Released: further table mutations no longer touch it.
	n := idx.Entries()
	insert(t, db, "SECURITY", soakDoc("NEW", 1))
	if idx.Entries() != n {
		t.Fatal("dropped index still feed-maintained")
	}
	if mgr.DropDeferred(def) {
		t.Fatal("double drop succeeded")
	}

	yield := Definition{Table: "SECURITY", Pattern: xpath.MustParsePattern("/Security/Yield"), Type: xpath.NumberVal}
	builtDefs, droppedDefs, err := mgr.Reconcile([]Definition{def, yield}, nil)
	if err != nil || len(builtDefs) != 2 || len(droppedDefs) != 0 {
		t.Fatalf("Reconcile = %v, %v, %v", builtDefs, droppedDefs, err)
	}
}

// mapCatalog is a minimal CatalogOps for manager tests.
type mapCatalog struct {
	mu sync.Mutex
	m  map[string]*Index
}

func (c *mapCatalog) Add(idx *Index) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[idx.Def.Key()] = idx
}

func (c *mapCatalog) Drop(def Definition) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[def.Key()]
	delete(c.m, def.Key())
	return ok
}

func (c *mapCatalog) Get(def Definition) (*Index, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, ok := c.m[def.Key()]
	return idx, ok
}

func (c *mapCatalog) Definitions() []Definition {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Definition
	for _, idx := range c.m {
		out = append(out, idx.Def)
	}
	SortDefinitions(out)
	return out
}
