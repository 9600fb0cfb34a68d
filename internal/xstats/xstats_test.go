package xstats

import (
	"fmt"
	"testing"

	"xixa/internal/storage"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

// newTable creates a database holding one empty table.
func newTable(name string) (*storage.Database, *storage.Table) {
	db := storage.NewDatabase()
	return db, db.MustCreateTable(name)
}

// commitOp runs op as its own transaction and returns its document ID.
func commitOp(t testing.TB, db *storage.Database, op storage.TxOp) int64 {
	t.Helper()
	ops := []storage.TxOp{op}
	if _, _, err := db.CommitTx(db.Watermark(), ops, nil); err != nil {
		t.Fatal(err)
	}
	return ops[0].DocID
}

func insertDoc(t testing.TB, db *storage.Database, tbl *storage.Table, d *xmltree.Document) int64 {
	t.Helper()
	return commitOp(t, db, storage.TxOp{Table: tbl.Name, Kind: storage.TxInsert, Doc: d})
}

func deleteDoc(t testing.TB, db *storage.Database, tbl *storage.Table, id int64) {
	t.Helper()
	commitOp(t, db, storage.TxOp{Table: tbl.Name, Kind: storage.TxDelete, DocID: id})
}

func replaceDoc(t testing.TB, db *storage.Database, tbl *storage.Table, id int64, d *xmltree.Document) {
	t.Helper()
	commitOp(t, db, storage.TxOp{Table: tbl.Name, Kind: storage.TxReplace, DocID: id, Doc: d})
}

// buildTable creates n Security docs with Symbol "S<i>", Yield i%10,
// and a Sector drawn from 4 values.
func buildTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	db, tbl := newTable("SECURITY")
	sectors := []string{"Energy", "Tech", "Finance", "Retail"}
	for i := 0; i < n; i++ {
		d := xmltree.NewBuilder().
			Begin("Security").
			Leaf("Symbol", fmt.Sprintf("S%04d", i)).
			LeafFloat("Yield", float64(i%10)).
			Begin("SecInfo").Begin("StockInformation").
			Leaf("Sector", sectors[i%len(sectors)]).
			End().End().
			End().Document()
		insertDoc(t, db, tbl, d)
	}
	return tbl
}

func TestCollectCounts(t *testing.T) {
	tbl := buildTable(t, 100)
	ts := Collect(tbl)
	if ts.DocCount != 100 {
		t.Errorf("DocCount = %d", ts.DocCount)
	}
	if ts.TotalNodes != tbl.NodeCount() {
		t.Errorf("TotalNodes = %d, want %d", ts.TotalNodes, tbl.NodeCount())
	}
	sym := ts.Paths["/Security/Symbol"]
	if sym == nil || sym.Count != 100 || sym.DistinctStrings != 100 {
		t.Fatalf("Symbol stats = %+v", sym)
	}
	yield := ts.Paths["/Security/Yield"]
	if yield == nil || yield.Count != 100 {
		t.Fatalf("Yield stats = %+v", yield)
	}
	if yield.NumericCount != 100 || yield.DistinctNums != 10 {
		t.Errorf("Yield numeric stats: count=%d distinct=%d", yield.NumericCount, yield.DistinctNums)
	}
	if yield.Min != 0 || yield.Max != 9 {
		t.Errorf("Yield range = [%v,%v], want [0,9]", yield.Min, yield.Max)
	}
	sector := ts.Paths["/Security/SecInfo/StockInformation/Sector"]
	if sector == nil || sector.DistinctStrings != 4 {
		t.Fatalf("Sector stats = %+v", sector)
	}
	if ts.AvgNodesPerDoc() <= 0 {
		t.Error("AvgNodesPerDoc must be positive")
	}
}

func TestForPatternSpecific(t *testing.T) {
	ts := Collect(buildTable(t, 50))
	ps := ts.ForPattern(xpath.MustParse("/Security/Symbol"), xpath.StringVal)
	if ps.Entries != 50 {
		t.Errorf("Entries = %d, want 50", ps.Entries)
	}
	if ps.SizeBytes <= 0 || ps.Levels < 1 {
		t.Errorf("derived size/levels invalid: %+v", ps)
	}
	num := ts.ForPattern(xpath.MustParse("/Security/Yield"), xpath.NumberVal)
	if num.Entries != 50 || num.Min != 0 || num.Max != 9 {
		t.Errorf("numeric pattern stats = %+v", num)
	}
	// Numeric index over a string path has no entries.
	strAsNum := ts.ForPattern(xpath.MustParse("/Security/Symbol"), xpath.NumberVal)
	if strAsNum.Entries != 0 {
		t.Errorf("Symbol as numeric: entries = %d, want 0", strAsNum.Entries)
	}
}

func TestForPatternGeneralCoversMore(t *testing.T) {
	ts := Collect(buildTable(t, 50))
	specific := ts.ForPattern(xpath.MustParse("/Security/Symbol"), xpath.StringVal).Entries +
		ts.ForPattern(xpath.MustParse("/Security/SecInfo/*/Sector"), xpath.StringVal).Entries
	general := ts.ForPattern(xpath.MustParse("/Security//*"), xpath.StringVal)
	if general.Entries <= specific {
		t.Errorf("general //* entries (%d) must exceed the specifics it covers (%d)",
			general.Entries, specific)
	}
	// The paper's size premise: general indexes are at least as large as
	// the union of the specifics they cover.
	sizeSpecific := ts.ForPattern(xpath.MustParse("/Security/Symbol"), xpath.StringVal).SizeBytes
	if general.SizeBytes <= sizeSpecific {
		t.Errorf("general size %d not larger than one specific %d", general.SizeBytes, sizeSpecific)
	}
}

func TestForPatternWildcardDepth(t *testing.T) {
	ts := Collect(buildTable(t, 10))
	// /Security/SecInfo/*/Sector must match through StockInformation.
	ps := ts.ForPattern(xpath.MustParse("/Security/SecInfo/*/Sector"), xpath.StringVal)
	if ps.Entries != 10 {
		t.Errorf("wildcard pattern entries = %d, want 10", ps.Entries)
	}
	// /Security/*/Sector must NOT match (Sector is 2 levels below SecInfo).
	ps2 := ts.ForPattern(xpath.MustParse("/Security/*/Sector"), xpath.StringVal)
	if ps2.Entries != 0 {
		t.Errorf("/Security/*/Sector entries = %d, want 0", ps2.Entries)
	}
}

func TestSelectivityEquality(t *testing.T) {
	ts := Collect(buildTable(t, 100))
	sym := ts.ForPattern(xpath.MustParse("/Security/Symbol"), xpath.StringVal)
	sel := sym.Selectivity(xpath.OpEq, xpath.StringValue("S0001"))
	if sel <= 0 || sel > 0.02 {
		t.Errorf("eq selectivity on unique column = %v, want ~1/100", sel)
	}
	sector := ts.ForPattern(xpath.MustParse("/Security/SecInfo/StockInformation/Sector"), xpath.StringVal)
	sel2 := sector.Selectivity(xpath.OpEq, xpath.StringValue("Energy"))
	if sel2 < 0.2 || sel2 > 0.3 {
		t.Errorf("eq selectivity on 4-valued column = %v, want 0.25", sel2)
	}
}

func TestSelectivityNumericRange(t *testing.T) {
	ts := Collect(buildTable(t, 100))
	yield := ts.ForPattern(xpath.MustParse("/Security/Yield"), xpath.NumberVal)
	// Yield uniform over 0..9: > 4.5 should be about half.
	sel := yield.Selectivity(xpath.OpGt, xpath.NumberValue(4.5))
	if sel < 0.4 || sel > 0.6 {
		t.Errorf("range selectivity = %v, want ~0.5", sel)
	}
	if got := yield.Selectivity(xpath.OpGt, xpath.NumberValue(100)); got != 0 {
		t.Errorf("selectivity beyond max = %v", got)
	}
	if got := yield.Selectivity(xpath.OpLt, xpath.NumberValue(100)); got != 1 {
		t.Errorf("selectivity covering all = %v", got)
	}
	ne := yield.Selectivity(xpath.OpNe, xpath.NumberValue(3))
	if ne < 0.8 || ne > 1 {
		t.Errorf("ne selectivity = %v", ne)
	}
}

func TestSelectivityEmptyPattern(t *testing.T) {
	ts := Collect(buildTable(t, 10))
	missing := ts.ForPattern(xpath.MustParse("/Nope"), xpath.StringVal)
	if missing.Entries != 0 {
		t.Fatalf("missing pattern entries = %d", missing.Entries)
	}
	if sel := missing.Selectivity(xpath.OpEq, xpath.StringValue("x")); sel != 0 {
		t.Errorf("selectivity on empty pattern = %v", sel)
	}
}

func TestPatternCacheStable(t *testing.T) {
	ts := Collect(buildTable(t, 20))
	p := xpath.MustParse("/Security//*")
	a := ts.ForPattern(p, xpath.StringVal)
	b := ts.ForPattern(p, xpath.StringVal)
	if a != b {
		t.Error("cached ForPattern results differ")
	}
}

func TestAttributeStats(t *testing.T) {
	db, tbl := newTable("T")
	for i := 0; i < 5; i++ {
		insertDoc(t, db, tbl, xmltree.MustParse(fmt.Sprintf(`<Order id="%d"><Qty>%d</Qty></Order>`, i, i*10)))
	}
	ts := Collect(tbl)
	attr := ts.Paths["/Order/@id"]
	if attr == nil || attr.Count != 5 || attr.DistinctStrings != 5 {
		t.Fatalf("@id stats = %+v", attr)
	}
	ps := ts.ForPattern(xpath.MustParse("/Order/@id"), xpath.StringVal)
	if ps.Entries != 5 {
		t.Errorf("@id pattern entries = %d", ps.Entries)
	}
	// Element wildcard must not absorb attributes.
	elems := ts.ForPattern(xpath.MustParse("/Order/*"), xpath.StringVal)
	if elems.Entries != 5 { // only Qty
		t.Errorf("/Order/* entries = %d, want 5", elems.Entries)
	}
}
