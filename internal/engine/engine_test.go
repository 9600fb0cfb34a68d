package engine

import (
	"fmt"
	"slices"
	"testing"

	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

func newFixture(t testing.TB, n int) (*storage.Database, *optimizer.Optimizer, *Engine, *Catalog) {
	t.Helper()
	db := storage.NewDatabase()
	db.MustCreateTable("SECURITY")
	sectors := []string{"Energy", "Tech", "Finance", "Retail"}
	for i := 0; i < n; i++ {
		d := xmltree.NewBuilder().
			Begin("Security").
			Leaf("Symbol", fmt.Sprintf("S%05d", i)).
			LeafFloat("Yield", float64(i%100)/10).
			Begin("SecInfo").Begin("StockInformation").
			Leaf("Sector", sectors[i%len(sectors)]).
			End().End().
			End().Document()
		if _, err := db.Load("SECURITY", d); err != nil {
			t.Fatal(err)
		}
	}
	opt := optimizer.New(db, optimizer.CollectStats(db))
	cat := NewCatalog()
	return db, opt, New(db, opt, cat), cat
}

// buildIndex materializes a self-maintained index — the only kind the
// engine probes — into cat.
func buildIndex(t testing.TB, db *storage.Database, cat *Catalog, pattern string, kind xpath.ValueKind) *xindex.Index {
	t.Helper()
	tbl, err := db.Table("SECURITY")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := xindex.BuildOnline(tbl, xindex.Definition{
		Table: "SECURITY", Pattern: xpath.MustParsePattern(pattern), Type: kind,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Release)
	cat.Add(idx)
	return idx
}

// sameContent reports whether two indexes hold exactly the same
// (key, ref) entries — stronger than comparing Entries().
func sameContent(a, b *xindex.Index) bool {
	dump := func(x *xindex.Index) []string {
		var out []string
		x.Walk(func(key []byte, ref xindex.Ref) bool {
			out = append(out, fmt.Sprintf("%x %d/%d", key, ref.Doc, ref.Node))
			return true
		})
		return out
	}
	return slices.Equal(dump(a), dump(b))
}

const eq1 = `for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "S00042" return $sec`

func TestFullScanExecution(t *testing.T) {
	_, _, eng, _ := newFixture(t, 300)
	refs, st, err := eng.Execute(xquery.MustParse(eq1))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 {
		t.Fatalf("results = %d, want 1", len(refs))
	}
	if st.NodesScanned == 0 || st.IndexProbes != 0 {
		t.Errorf("full scan stats = %+v", st)
	}
}

func TestIndexExecutionMatchesScan(t *testing.T) {
	db, _, eng, cat := newFixture(t, 300)
	scanRefs, scanStats, err := eng.Execute(xquery.MustParse(eq1))
	if err != nil {
		t.Fatal(err)
	}
	buildIndex(t, db, cat, "/Security/Symbol", xpath.StringVal)
	idxRefs, idxStats, err := eng.Execute(xquery.MustParse(eq1))
	if err != nil {
		t.Fatal(err)
	}
	if len(idxRefs) != len(scanRefs) {
		t.Fatalf("index plan found %d results, scan %d", len(idxRefs), len(scanRefs))
	}
	for i := range idxRefs {
		if idxRefs[i] != scanRefs[i] {
			t.Errorf("result %d differs: %+v vs %+v", i, idxRefs[i], scanRefs[i])
		}
	}
	if idxStats.IndexProbes == 0 {
		t.Error("index plan did not probe the index")
	}
	if idxStats.WorkUnits() >= scanStats.WorkUnits() {
		t.Errorf("index work %v not below scan work %v", idxStats.WorkUnits(), scanStats.WorkUnits())
	}
}

func TestIndexANDingExecution(t *testing.T) {
	db, _, eng, cat := newFixture(t, 1000)
	q := `for $s in SECURITY('SDOC')/Security[Yield>9.0] where $s/SecInfo/*/Sector = "Energy" return $s`
	baseRefs, _, err := eng.Execute(xquery.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	buildIndex(t, db, cat, "/Security/Yield", xpath.NumberVal)
	buildIndex(t, db, cat, "/Security/SecInfo/*/Sector", xpath.StringVal)
	idxRefs, st, err := eng.Execute(xquery.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	if len(idxRefs) != len(baseRefs) {
		t.Fatalf("results differ: %d vs %d", len(idxRefs), len(baseRefs))
	}
	if len(baseRefs) == 0 {
		t.Fatal("test query matched nothing; fixture broken")
	}
	if st.IndexProbes < 1 {
		t.Error("no index probes recorded")
	}
}

func TestGeneralIndexExecution(t *testing.T) {
	db, _, eng, cat := newFixture(t, 200)
	scanRefs, _, err := eng.Execute(xquery.MustParse(eq1))
	if err != nil {
		t.Fatal(err)
	}
	// Only the general index exists; the optimizer must route the
	// query through it and verification must filter false positives
	// (other nodes with value "S00042" reachable by //*).
	buildIndex(t, db, cat, "/Security//*", xpath.StringVal)
	refs, st, err := eng.Execute(xquery.MustParse(eq1))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != len(scanRefs) {
		t.Fatalf("general-index plan found %d, scan %d", len(refs), len(scanRefs))
	}
	if st.IndexProbes == 0 {
		t.Error("general index not used")
	}
}

// TestInsertMaintainsIndexes: the engine does no index upkeep; a
// catalog index follows the commit through the change feed, and ends up
// with exactly the content of a fresh build.
func TestInsertMaintainsIndexes(t *testing.T) {
	db, _, eng, cat := newFixture(t, 50)
	idx := buildIndex(t, db, cat, "/Security/Symbol", xpath.StringVal)
	before := idx.Entries()
	ins := xquery.MustParse(`insert into SECURITY value <Security><Symbol>ZZTOP</Symbol><Yield>1</Yield></Security>`)
	_, st, err := eng.Execute(ins)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Entries() != before+1 {
		t.Errorf("entries = %d, want %d", idx.Entries(), before+1)
	}
	if st.DocsModified != 1 {
		t.Errorf("stats = %+v", st)
	}
	tbl, _ := db.Table("SECURITY")
	fresh, err := xindex.Build(tbl, idx.Def)
	if err != nil {
		t.Fatal(err)
	}
	if !sameContent(idx, fresh) {
		t.Error("feed-maintained index content differs from a fresh build")
	}
	// The new document must now be findable via the index.
	refs, st, err := eng.Execute(xquery.MustParse(
		`for $s in SECURITY('SDOC')/Security where $s/Symbol = "ZZTOP" return $s`))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || st.IndexProbes != 1 {
		t.Errorf("inserted doc not found via index: %d results, stats %+v", len(refs), st)
	}
}

func TestRepeatedInsertsDoNotAlias(t *testing.T) {
	db, _, eng, _ := newFixture(t, 10)
	ins := xquery.MustParse(`insert into SECURITY value <Security><Symbol>DUP</Symbol></Security>`)
	for i := 0; i < 3; i++ {
		if _, _, err := eng.Execute(ins); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := db.Table("SECURITY")
	if tbl.DocCount() != 13 {
		t.Errorf("DocCount = %d, want 13", tbl.DocCount())
	}
}

func TestDeleteExecution(t *testing.T) {
	db, _, eng, cat := newFixture(t, 100)
	idx := buildIndex(t, db, cat, "/Security/Symbol", xpath.StringVal)
	del := xquery.MustParse(`delete from SECURITY where /Security[Symbol="S00042"]`)
	_, st, err := eng.Execute(del)
	if err != nil {
		t.Fatal(err)
	}
	if st.DocsModified != 1 {
		t.Fatalf("deleted %d docs, want 1", st.DocsModified)
	}
	tbl, _ := db.Table("SECURITY")
	if tbl.DocCount() != 99 {
		t.Errorf("DocCount = %d", tbl.DocCount())
	}
	if idx.Entries() != 99 {
		t.Errorf("index entries = %d, want 99", idx.Entries())
	}
	// Idempotence: deleting again matches nothing.
	_, st2, err := eng.Execute(del)
	if err != nil {
		t.Fatal(err)
	}
	if st2.DocsModified != 0 {
		t.Errorf("second delete modified %d docs", st2.DocsModified)
	}
}

func TestUpdateExecution(t *testing.T) {
	db, _, eng, cat := newFixture(t, 100)
	yieldIdx := buildIndex(t, db, cat, "/Security/Yield", xpath.NumberVal)
	upd := xquery.MustParse(`update SECURITY set Yield = 99.5 where /Security[Symbol="S00007"]`)
	_, st, err := eng.Execute(upd)
	if err != nil {
		t.Fatal(err)
	}
	if st.DocsModified != 1 {
		t.Fatalf("updated %d docs", st.DocsModified)
	}
	// The new value must be visible through the index.
	n := 0
	yieldIdx.Scan(xpath.OpEq, xpath.NumberValue(99.5), func(xindex.Ref) bool { n++; return true })
	if n != 1 {
		t.Errorf("index lookup of updated value found %d entries", n)
	}
	// And the document itself is changed.
	refs, _, err := eng.Execute(xquery.MustParse(`SECURITY('SDOC')/Security[Yield=99.5]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 {
		t.Errorf("query for updated value found %d docs", len(refs))
	}
}

func TestPlanWithMissingIndexFails(t *testing.T) {
	db, opt, eng, _ := newFixture(t, 50)
	// Build a plan against a virtual config, then execute it without
	// materializing the index: the engine must refuse.
	def := xindex.Definition{Table: "SECURITY", Pattern: xpath.MustParsePattern("/Security/Symbol"), Type: xpath.StringVal}
	plan, err := opt.EvaluateIndexes(xquery.MustParse(eq1), []xindex.Definition{def})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UsesIndexes() {
		t.Fatal("expected an index plan")
	}
	if _, _, err := eng.ExecutePlan(plan); err == nil {
		t.Error("executing plan with unmaterialized index succeeded")
	}
	// Inside a transaction too, for a query and for a mutation's match
	// phase alike.
	del := xquery.MustParse(`delete from SECURITY where /Security[Symbol="S00042"]`)
	delPlan, err := opt.EvaluateIndexes(del, []xindex.Definition{def})
	if err != nil || !delPlan.UsesIndexes() {
		t.Fatalf("delete plan %v, err %v; expected an index plan", delPlan, err)
	}
	tx := eng.Begin()
	defer tx.Rollback()
	if _, _, err := tx.execute(plan.Stmt, plan, nil); err == nil {
		t.Error("transaction executed a query plan with an unmaterialized index")
	}
	if _, _, err := tx.execute(del, delPlan, nil); err == nil {
		t.Error("transaction executed a delete plan with an unmaterialized index")
	}
	if _, _, err := eng.ExecutePlan(delPlan); err == nil {
		t.Error("auto-commit delete with an unmaterialized index succeeded")
	}
	if tbl, _ := db.Table("SECURITY"); tbl.DocCount() != 50 {
		t.Errorf("a refused delete plan removed documents: %d left of 50", tbl.DocCount())
	}
}

func TestCatalogBasics(t *testing.T) {
	db, _, _, cat := newFixture(t, 20)
	idx := buildIndex(t, db, cat, "/Security/Symbol", xpath.StringVal)
	if got, ok := cat.Get(idx.Def); !ok || got != idx {
		t.Error("Get after Add failed")
	}
	if len(cat.Definitions()) != 1 || len(cat.ForTable("SECURITY")) != 1 {
		t.Error("catalog listing wrong")
	}
	if cat.TotalSizeBytes() <= 0 {
		t.Error("TotalSizeBytes must be positive")
	}
	if !cat.Drop(idx.Def) || cat.Drop(idx.Def) {
		t.Error("Drop semantics wrong")
	}
}

func TestRunWorkloadWeightsByFrequency(t *testing.T) {
	_, _, eng, _ := newFixture(t, 100)
	items := []WorkloadItem{{Stmt: xquery.MustParse(eq1), Freq: 3}}
	st3, err := eng.RunWorkload(items)
	if err != nil {
		t.Fatal(err)
	}
	items[0].Freq = 1
	st1, err := eng.RunWorkload(items)
	if err != nil {
		t.Fatal(err)
	}
	if st3.NodesScanned != 3*st1.NodesScanned {
		t.Errorf("frequency weighting broken: %d vs 3*%d", st3.NodesScanned, st1.NodesScanned)
	}
}
