package xindex

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"xixa/internal/storage"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xstats"
)

func secDoc(i int) *xmltree.Document {
	sectors := []string{"Energy", "Tech", "Finance", "Retail"}
	return xmltree.NewBuilder().
		Begin("Security").
		Leaf("Symbol", fmt.Sprintf("S%04d", i)).
		LeafFloat("Yield", float64(i%10)+0.5).
		Begin("SecInfo").Begin("StockInformation").
		Leaf("Sector", sectors[i%len(sectors)]).
		End().End().
		End().Document()
}

func buildSecurityTable(n int) *storage.Table {
	tbl := storage.NewTable("SECURITY")
	for i := 0; i < n; i++ {
		tbl.Insert(secDoc(i))
	}
	return tbl
}

func def(pattern string, kind xpath.ValueKind) Definition {
	return Definition{Table: "SECURITY", Pattern: xpath.MustParsePattern(pattern), Type: kind}
}

func TestDefinitionValidate(t *testing.T) {
	if err := def("/Security/Symbol", xpath.StringVal).Validate(); err != nil {
		t.Errorf("valid definition rejected: %v", err)
	}
	bad := Definition{Table: "", Pattern: xpath.MustParse("/a"), Type: xpath.StringVal}
	if err := bad.Validate(); err == nil {
		t.Error("missing table accepted")
	}
	rel := Definition{Table: "T", Pattern: xpath.MustParse("a/b"), Type: xpath.StringVal}
	if err := rel.Validate(); err == nil {
		t.Error("relative pattern accepted")
	}
}

func TestBuildStringIndex(t *testing.T) {
	tbl := buildSecurityTable(100)
	idx, err := Build(tbl, def("/Security/Symbol", xpath.StringVal))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if idx.Entries() != 100 {
		t.Errorf("Entries = %d, want 100", idx.Entries())
	}
	var hits []Ref
	idx.Scan(xpath.OpEq, xpath.StringValue("S0042"), func(r Ref) bool {
		hits = append(hits, r)
		return true
	})
	if len(hits) != 1 {
		t.Fatalf("eq scan hits = %d, want 1", len(hits))
	}
	doc, ok := tbl.Get(hits[0].Doc)
	if !ok {
		t.Fatal("ref points to missing doc")
	}
	if got := doc.TextOf(hits[0].Node); got != "S0042" {
		t.Errorf("ref value = %q", got)
	}
}

func TestBuildNumericIndexAndRanges(t *testing.T) {
	tbl := buildSecurityTable(100)
	idx, err := Build(tbl, def("/Security/Yield", xpath.NumberVal))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if idx.Entries() != 100 {
		t.Fatalf("Entries = %d", idx.Entries())
	}
	count := func(op xpath.CmpOp, v float64) int {
		n := 0
		idx.Scan(op, xpath.NumberValue(v), func(Ref) bool { n++; return true })
		return n
	}
	// Yields are i%10 + 0.5 for 100 docs: 10 of each value 0.5..9.5.
	if got := count(xpath.OpEq, 4.5); got != 10 {
		t.Errorf("eq 4.5 = %d, want 10", got)
	}
	if got := count(xpath.OpGt, 4.5); got != 50 {
		t.Errorf("gt 4.5 = %d, want 50", got)
	}
	if got := count(xpath.OpGe, 4.5); got != 60 {
		t.Errorf("ge 4.5 = %d, want 60", got)
	}
	if got := count(xpath.OpLt, 0.5); got != 0 {
		t.Errorf("lt 0.5 = %d, want 0", got)
	}
	if got := count(xpath.OpLe, 9.5); got != 100 {
		t.Errorf("le 9.5 = %d, want 100", got)
	}
	if got := count(xpath.OpNe, 4.5); got != 90 {
		t.Errorf("ne 4.5 = %d, want 90", got)
	}
}

func TestNumericIndexSkipsNonNumeric(t *testing.T) {
	tbl := storage.NewTable("SECURITY")
	tbl.Insert(xmltree.MustParse(`<Security><Yield>4.5</Yield></Security>`))
	tbl.Insert(xmltree.MustParse(`<Security><Yield>not-a-number</Yield></Security>`))
	idx, err := Build(tbl, def("/Security/Yield", xpath.NumberVal))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Entries() != 1 {
		t.Errorf("Entries = %d, want 1 (invalid values ignored)", idx.Entries())
	}
}

func TestGeneralPatternIndexesAllCoveredNodes(t *testing.T) {
	tbl := buildSecurityTable(20)
	idx, err := Build(tbl, def("/Security//*", xpath.StringVal))
	if err != nil {
		t.Fatal(err)
	}
	// Each doc: Symbol, Yield, SecInfo, StockInformation, Sector = 5
	// descendant elements of /Security.
	if idx.Entries() != 20*5 {
		t.Errorf("Entries = %d, want %d", idx.Entries(), 20*5)
	}
	// An equality lookup returns every covered node whose typed value is
	// "Energy": the Sector leaf, plus SecInfo and StockInformation whose
	// concatenated subtree text is also "Energy" (element values are the
	// concatenation of descendant text, as in DB2).
	n := 0
	idx.Scan(xpath.OpEq, xpath.StringValue("Energy"), func(Ref) bool { n++; return true })
	if n != 15 { // (20 docs / 4 sectors) * 3 nodes per matching doc
		t.Errorf("Energy hits = %d, want 15", n)
	}
}

func TestMaintenanceOnInsertDelete(t *testing.T) {
	tbl := buildSecurityTable(10)
	idx, _ := Build(tbl, def("/Security/Symbol", xpath.StringVal))
	d := secDoc(999)
	tbl.Insert(d)
	if added := idx.OnInsert(d); added != 1 {
		t.Errorf("OnInsert added %d entries, want 1", added)
	}
	if idx.Entries() != 11 {
		t.Errorf("Entries = %d, want 11", idx.Entries())
	}
	if removed := idx.OnDelete(d); removed != 1 {
		t.Errorf("OnDelete removed %d, want 1", removed)
	}
	tbl.Delete(d.DocID)
	if idx.Entries() != 10 {
		t.Errorf("Entries = %d, want 10", idx.Entries())
	}
	// Lookup of the removed doc's symbol finds nothing.
	n := 0
	idx.Scan(xpath.OpEq, xpath.StringValue("S0999"), func(Ref) bool { n++; return true })
	if n != 0 {
		t.Errorf("stale entries after delete: %d", n)
	}
}

func TestScanTypeMismatch(t *testing.T) {
	tbl := buildSecurityTable(10)
	strIdx, _ := Build(tbl, def("/Security/Symbol", xpath.StringVal))
	n := strIdx.Scan(xpath.OpEq, xpath.NumberValue(4.5), func(Ref) bool { return true })
	if n != 0 {
		t.Errorf("numeric probe of string index visited %d", n)
	}
	numIdx, _ := Build(tbl, def("/Security/Yield", xpath.NumberVal))
	n = numIdx.Scan(xpath.OpEq, xpath.StringValue("x"), func(Ref) bool { return true })
	if n != 0 {
		t.Errorf("string probe of numeric index visited %d", n)
	}
}

func TestEncodeKeyOrderPreserving(t *testing.T) {
	check := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := encodeKey(xpath.NumberVal, "", a)
		kb := encodeKey(xpath.NumberVal, "", b)
		cmp := 0
		for i := range ka {
			if ka[i] != kb[i] {
				if ka[i] < kb[i] {
					cmp = -1
				} else {
					cmp = 1
				}
				break
			}
		}
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Explicit spot checks across sign and magnitude boundaries.
	vals := []float64{math.Inf(-1), -1e300, -2, -1, -0.5, 0, 0.5, 1, 2, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		ka := string(encodeKey(xpath.NumberVal, "", vals[i-1]))
		kb := string(encodeKey(xpath.NumberVal, "", vals[i]))
		if !(ka < kb) {
			t.Errorf("encoding order broken between %v and %v", vals[i-1], vals[i])
		}
	}
}

// TestVirtualMatchesRealSize: a hypothetical index is its definition
// sized from the path synopsis; the estimate must track what building
// the index really produces.
func TestVirtualMatchesRealSize(t *testing.T) {
	tbl := buildSecurityTable(500)
	ts := xstats.Collect(tbl)
	for _, tc := range []struct {
		pattern string
		kind    xpath.ValueKind
	}{
		{"/Security/Symbol", xpath.StringVal},
		{"/Security/Yield", xpath.NumberVal},
		{"/Security//*", xpath.StringVal},
	} {
		d := def(tc.pattern, tc.kind)
		real, err := Build(tbl, d)
		if err != nil {
			t.Fatal(err)
		}
		virt := ts.ForPattern(d.Pattern, d.Type)
		if int64(real.Entries()) != virt.Entries {
			t.Errorf("%s: real entries %d != virtual %d", tc.pattern, real.Entries(), virt.Entries)
		}
		ratio := float64(real.SizeBytes()) / float64(virt.SizeBytes)
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: real size %d vs virtual %d (ratio %.2f)",
				tc.pattern, real.SizeBytes(), virt.SizeBytes, ratio)
		}
	}
}

// TestScanHonoursEarlyStop: visit returning false ends the scan, in the
// tree phase and in the graveyard phase of an as-of scan alike.
func TestScanHonoursEarlyStop(t *testing.T) {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable("SECURITY")
	for i := 0; i < 10; i++ {
		tbl.Insert(secDoc(i))
	}
	idx, err := BuildOnline(tbl, def("/Security/Yield", xpath.NumberVal))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Release()
	snap := db.PinSnapshot() // still sees the three documents deleted next
	defer snap.Release()
	for id := int64(0); id < 3; id++ {
		tbl.Delete(id)
	}
	for _, tc := range []struct {
		name      string
		asOf      uint64
		stopAfter int // 0: never
		calls     int
	}{
		{"as-of, stop in the tree", snap.LSN(), 1, 1},
		{"as-of, stop in the graveyard", snap.LSN(), 8, 8},
		{"as-of, full", snap.LSN(), 0, 10},
		{"current, stop", math.MaxUint64, 1, 1},
		{"current, full", math.MaxUint64, 0, 7},
	} {
		calls := 0
		visit := func(Ref) bool { calls++; return calls != tc.stopAfter }
		if tc.asOf == math.MaxUint64 {
			idx.Scan(xpath.OpGe, xpath.NumberValue(0), visit)
		} else {
			idx.ScanAsOf(xpath.OpGe, xpath.NumberValue(0), tc.asOf, visit)
		}
		if calls != tc.calls {
			t.Errorf("%s: visit called %d times, want %d", tc.name, calls, tc.calls)
		}
	}
}

// TestBornRecordsBoundedWithoutDeletes: on a table that is only
// inserted into, with no snapshot pinned, born stamps at or below the
// horizon are forgotten as they accumulate — the prune must not wait
// for a delete.
func TestBornRecordsBoundedWithoutDeletes(t *testing.T) {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable("SECURITY")
	idx, err := BuildOnline(tbl, def("/Security/Symbol", xpath.StringVal))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Release()
	const n = 1000
	for i := 0; i < n; i++ {
		tbl.Insert(secDoc(i))
	}
	idx.mu.RLock()
	borns := len(idx.borns)
	idx.mu.RUnlock()
	if borns > 64 {
		t.Errorf("%d born records after %d stamped inserts and no deletes, want at most 64", borns, n)
	}
	if got := idx.ScanAsOf(xpath.OpGe, xpath.StringValue(""), db.Watermark(), func(Ref) bool { return true }); got != n {
		t.Errorf("scan at the watermark visited %d entries, want %d", got, n)
	}
}

func TestDefinitionMatches(t *testing.T) {
	d := def("/Security//*", xpath.StringVal)
	if !d.Matches(xpath.MustParse("/Security/Symbol"), xpath.StringVal) {
		t.Error("general index must match covered pattern")
	}
	if d.Matches(xpath.MustParse("/Security/Symbol"), xpath.NumberVal) {
		t.Error("type mismatch must not match")
	}
	if d.Matches(xpath.MustParse("/Other/Symbol"), xpath.StringVal) {
		t.Error("uncovered pattern matched")
	}
}

// TestPropertyIndexAgreesWithEval: for random docs and random linear
// patterns, the set of (doc,node) pairs in the index equals the set of
// nodes selected by evaluating the pattern on each document.
func TestPropertyIndexAgreesWithEval(t *testing.T) {
	patterns := []string{"/a/b", "/a//c", "//b", "/a/*", "/a//*", "/a/b/c"}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := storage.NewTable("SECURITY")
		names := []string{"a", "b", "c"}
		for d := 0; d < 10; d++ {
			b := xmltree.NewBuilder()
			var gen func(depth int)
			gen = func(depth int) {
				b.Begin(names[r.Intn(len(names))])
				if depth < 3 {
					for i := 0; i < r.Intn(3); i++ {
						gen(depth + 1)
					}
				}
				b.Text(fmt.Sprintf("v%d", r.Intn(5)))
				b.End()
			}
			b.Begin("a")
			for i := 0; i < 1+r.Intn(3); i++ {
				gen(1)
			}
			b.End()
			tbl.Insert(b.Document())
		}
		pat := patterns[r.Intn(len(patterns))]
		idx, err := Build(tbl, Definition{Table: "SECURITY", Pattern: xpath.MustParsePattern(pat), Type: xpath.StringVal})
		if err != nil {
			return false
		}
		var fromIndex []Ref
		idx.Scan(xpath.OpNe, xpath.StringValue("\x00impossible"), func(r Ref) bool {
			fromIndex = append(fromIndex, r)
			return true
		})
		var fromEval []Ref
		tbl.Scan(func(doc *xmltree.Document) bool {
			for _, id := range xpath.Eval(doc, xpath.MustParse(pat)) {
				fromEval = append(fromEval, Ref{Doc: doc.DocID, Node: id})
			}
			return true
		})
		less := func(a, b Ref) bool {
			if a.Doc != b.Doc {
				return a.Doc < b.Doc
			}
			return a.Node < b.Node
		}
		sort.Slice(fromIndex, func(i, j int) bool { return less(fromIndex[i], fromIndex[j]) })
		sort.Slice(fromEval, func(i, j int) bool { return less(fromEval[i], fromEval[j]) })
		if len(fromIndex) != len(fromEval) {
			t.Logf("seed %d pattern %s: index %d entries, eval %d", seed, pat, len(fromIndex), len(fromEval))
			return false
		}
		for i := range fromIndex {
			if fromIndex[i] != fromEval[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNumericIndexSkipsNaN asserts NaN values never become numeric
// index entries (IGNORE INVALID VALUES): before the fix, NaN's
// sign-flipped encoding landed inside the positive-number key range and
// surfaced from range scans, even though no comparison is true of NaN.
func TestNumericIndexSkipsNaN(t *testing.T) {
	tbl := storage.NewTable("SECURITY")
	mk := func(yield string) *xmltree.Document {
		return xmltree.NewBuilder().
			Begin("Security").Leaf("Yield", yield).End().Document()
	}
	docs := []*xmltree.Document{mk("NaN"), mk("1.5"), mk("nan"), mk("7.25"), mk("NAN")}
	for _, d := range docs {
		tbl.Insert(d)
	}
	idx, err := Build(tbl, def("/Security/Yield", xpath.NumberVal))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Entries() != 2 {
		t.Fatalf("index holds %d entries, want 2 (NaN must be skipped)", idx.Entries())
	}
	// Full numeric range: NaN must not be range-scannable.
	var hits []Ref
	idx.Scan(xpath.OpGe, xpath.NumberValue(math.Inf(-1)), func(r Ref) bool {
		hits = append(hits, r)
		return true
	})
	if len(hits) != 2 {
		t.Fatalf("range scan returned %d refs, want 2: %v", len(hits), hits)
	}
	// NaN literal: no comparison holds.
	for _, op := range []xpath.CmpOp{xpath.OpEq, xpath.OpLt, xpath.OpLe, xpath.OpGt, xpath.OpGe, xpath.OpNe} {
		n := idx.Scan(op, xpath.NumberValue(math.NaN()), func(Ref) bool { return true })
		if n != 0 {
			t.Fatalf("Scan(%v, NaN) visited %d entries, want 0", op, n)
		}
	}
	// Maintenance symmetry: deleting the NaN docs touches nothing,
	// deleting a numeric doc removes its entry.
	if removed := idx.OnDelete(docs[0]); removed != 0 {
		t.Fatalf("OnDelete of NaN doc removed %d entries", removed)
	}
	if removed := idx.OnDelete(docs[1]); removed != 1 {
		t.Fatalf("OnDelete of numeric doc removed %d entries", removed)
	}
}
