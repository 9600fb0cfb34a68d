package xpath_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/xmark"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// sameAsEval checks one document against one path: Select must return
// Eval's node IDs in Eval's order, and Exists must agree with them.
func sameAsEval(t testing.TB, cache *xpath.ProgramCache, doc *xmltree.Document, p xpath.Path) {
	t.Helper()
	want := xpath.Eval(doc, p)
	m := cache.Bind(p)
	got := m.Select(doc, nil)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s on doc %d (%s):\n Select = %v\n Eval   = %v", p, doc.DocID, xmltree.SerializeString(doc), got, want)
	}
	if m.Exists(doc) != (len(want) > 0) {
		t.Fatalf("%s on doc %d: Exists = %v, Eval selects %d nodes", p, doc.DocID, !(len(want) > 0), len(want))
	}
}

func tableDocs(tbl *storage.Table) []*xmltree.Document {
	var docs []*xmltree.Document
	tbl.Scan(func(d *xmltree.Document) bool { docs = append(docs, d); return true })
	return docs
}

// scanTemplates are the four statement templates of xixabench's
// scan-untuned workload, with one parameter set each.
var scanTemplates = []string{
	`for $sec in SECURITY('SDOC')/Security[Yield>4.5] where $sec/SecInfo/*/Sector = "Energy" return <Security>{$sec/Name}</Security>`,
	`for $sec in SECURITY('SDOC')/Security where $sec//Industry = "Software" return <R>{$sec/Symbol}{$sec/Name}</R>`,
	`for $sec in SECURITY('SDOC')/Security[PE<12.0] where $sec/Yield >= 6.0 return <R>{$sec/Symbol}{$sec/PE}{$sec/Yield}</R>`,
	`for $sec in SECURITY('SDOC')/Security where $sec/SecInfo/BondInformation/CreditRating = "AAA" return <R>{$sec/Symbol}</R>`,
}

// shapePaths cover what the statement workloads do not: wildcards and
// descendant steps in every position, attributes, numeric literals
// against non-numeric and NaN text, several and nested predicates,
// predicates on inner steps, and paths that select nothing.
var shapePaths = []string{
	`/*`, `//*`, `//@*`, `/*/*`, `/*/@*`, `//*/*`, `/*//*`, `//*//*`, `/Security//*[Sector]`,
	`/Security/@id`, `/Security[@id>100500]`, `/Security[@id="100500"]`, `//@id`, `/Order[@ID]`,
	`/Security[Name>5]`, `/Security[Name!=5]`, `/Security[Symbol!="SYM00001"]`, `/Security[SecurityType="NaN"]`,
	`/Security[Yield>4.5][PE<20][SecurityType="Bond"]`, `/Security[Yield>4.5]/Name`, `/Security[Yield<1]/Price/*`,
	`/Security[SecInfo/*[Sector="Energy"]/Industry]`, `/Security[SecInfo/*[Sector="Energy"][Industry="OilGas"]]/Symbol`,
	`/Security/SecInfo/*[CreditRating="AAA"]/Sector`, `/Security[.//CreditRating]`, `/Security[.//Sector="Energy"]//Industry`,
	`//Sector`, `//SecInfo//Sector`, `//*[Sector="Energy"]`, `//*[.//Sector="Energy"]`, `/Security/*/*/Sector`,
	`/Security/Missing`, `/Security[Missing="x"]`, `/Wrong`, `/Security/Symbol/Deeper`, `/Security/@id/x`,
	`/Customer/Accounts/Account[Balance>5000]/@id`, `/Customer[Accounts/Account/Balance>9900.0][Nationality="US"]`,
	`/Customer//Account[Currency="USD"][Type="savings"]`, `/Customer[Name/First="Ada"]/Name/Last`, `//Account[@id]/Balance`,
	`/Order[Type="buy"][Quantity>9000]`, `/Order[Price>=100.5]/Symbol`, `//Order//Status`,
	`/item[location="europe"]//name`, `/person[profile/income>100000.0]/name`, `/person[.//interest/@category="books"]`,
	`/person//interest[@category="books"]`, `/closed_auction[price>900.0][itemref]`, `//*[@id="person00013"]`, `//*[@*="books"]`,
}

func normalizedPaths(t *testing.T, table string, stmts []string) []xpath.Path {
	var out []xpath.Path
	for _, raw := range stmts {
		stmt, err := xquery.Parse(raw)
		if err != nil {
			t.Fatalf("parse %q: %v", raw, err)
		}
		if stmt.Table == table {
			out = append(out, stmt.NormalizedPath())
		}
	}
	return out
}

// TestCompiledMatchesEval is the differential suite over the benchmark
// data: every TPoX and XMark document against the workload queries of
// its table and every path shape.
func TestCompiledMatchesEval(t *testing.T) {
	tp, err := tpox.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	xm, err := xmark.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	var shapes []xpath.Path
	for _, s := range shapePaths {
		shapes = append(shapes, xpath.MustParse(s))
	}
	for _, db := range []*storage.Database{tp, xm} {
		for _, name := range db.TableNames() {
			tbl, _ := db.Table(name)
			paths := normalizedPaths(t, name, append(append(tpox.Queries(), scanTemplates...), xmark.Queries()...))
			paths = append(paths, shapes...)
			docs := tableDocs(tbl)
			if len(docs) == 0 {
				t.Fatalf("table %s is empty", name)
			}
			for _, p := range paths {
				for _, doc := range docs {
					sameAsEval(t, tbl.Programs(), doc, p)
				}
			}
		}
	}
	// One program per (table, shape): literals are not part of the key.
	sec, _ := tp.Table(tpox.TableSecurity)
	fresh := xpath.NewProgramCache(sec.PathDict())
	for i := 0; i < 50; i++ {
		p := xpath.MustParse(fmt.Sprintf(`/Security[Yield>%d.5][SecInfo/*/Sector="%s"]`, i%10, []string{"Energy", "Finance", "x"}[i%3]))
		sameAsEval(t, fresh, tableDocs(sec)[i], p)
	}
	if got := fresh.Len(); got != 1 {
		t.Errorf("50 parameter sets of one template compiled %d programs, want 1", got)
	}
}

// TestProgramCacheBounded feeds the cache more distinct shapes than it
// keeps: it must start over rather than grow without end.
func TestProgramCacheBounded(t *testing.T) {
	tbl := storage.NewTable("T")
	tbl.Insert(xmltree.MustParse(`<a><b>1</b></a>`))
	cache := tbl.Programs()
	for i := 0; i < 1500; i++ {
		cache.Bind(xpath.MustParse(fmt.Sprintf(`/a[b%d=1]`, i)))
	}
	if n := cache.Len(); n == 0 || n > 1024 {
		t.Errorf("cache holds %d programs after 1500 shapes, want 1..1024", n)
	}
}

// genDoc builds a small random document over a three-label alphabet, so
// that labels recur along a root-to-leaf path: the case where a rooted
// PathID inside a context's subtree is not a match relative to it.
func genDoc(r *rand.Rand, maxNodes int) *xmltree.Document {
	labels := []string{"x", "y", "z"}
	values := []string{"1", "2", " 1 ", "1.0", "a", "NaN", "", "-3e2"}
	b := xmltree.NewBuilder()
	nodes := 0
	var elem func(depth int)
	elem = func(depth int) {
		b.Begin(labels[r.Intn(len(labels))])
		nodes++
		if r.Intn(4) == 0 {
			b.Attr(labels[r.Intn(len(labels))], values[r.Intn(len(values))])
		}
		kids := r.Intn(4)
		if depth > 6 {
			kids = 0
		}
		for k := 0; k < kids && nodes < maxNodes; k++ {
			if r.Intn(3) == 0 {
				b.Text(values[r.Intn(len(values))])
			} else {
				elem(depth + 1)
			}
		}
		if kids == 0 && r.Intn(2) == 0 {
			b.Text(values[r.Intn(len(values))])
		}
		b.End()
	}
	elem(1)
	return b.Document()
}

// genPath renders a random path over the same alphabet: both axes,
// wildcards, attributes, and predicates nested up to two deep.
func genPath(r *rand.Rand, relative bool, depth int) string {
	var sb strings.Builder
	steps := 1 + r.Intn(3)
	for i := 0; i < steps; i++ {
		switch {
		case i == 0 && relative:
			if r.Intn(3) == 0 {
				sb.WriteString(".//")
			}
		case r.Intn(3) == 0:
			sb.WriteString("//")
		default:
			sb.WriteString("/")
		}
		last := i == steps-1
		switch r.Intn(8) {
		case 0:
			sb.WriteString("*")
		case 1:
			if last {
				sb.WriteString("@" + []string{"x", "y", "z", "*"}[r.Intn(4)])
				continue // the dialect puts no predicate on an attribute here
			}
			sb.WriteString("x")
		default:
			sb.WriteString([]string{"x", "y", "z"}[r.Intn(3)])
		}
		for depth < 2 && r.Intn(3) == 0 {
			sb.WriteString("[" + genPath(r, true, depth+1))
			if r.Intn(4) != 0 {
				sb.WriteString([]string{"=", "!=", "<", "<=", ">", ">="}[r.Intn(6)])
				sb.WriteString([]string{"1", "2", `"1"`, `"a"`, "-300", `""`}[r.Intn(6)])
			}
			sb.WriteString("]")
		}
	}
	return sb.String()
}

// TestCompiledMatchesEvalRecursiveLabels runs generated paths over
// generated documents whose labels recur, plus the case that motivates
// context-relative predicate matching, pinned explicitly.
func TestCompiledMatchesEvalRecursiveLabels(t *testing.T) {
	tbl := storage.NewTable("T")
	tbl.Insert(xmltree.MustParse(`<x><x><x><y>1</y></x></x></x>`))
	pinned := xpath.MustParse(`//x[x/y=1]`)
	doc := tableDocs(tbl)[0]
	if got := tbl.Programs().Bind(pinned).Select(doc, nil); fmt.Sprint(got) != "[1]" {
		t.Fatalf("//x[x/y=1] over /x/x/x/y selected %v, want only the middle x [1]", got)
	}
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		tbl.Insert(genDoc(r, 40))
	}
	docs := tableDocs(tbl)
	for i := 0; i < 400; i++ {
		raw := genPath(r, false, 0)
		p, err := xpath.Parse(raw)
		if err != nil {
			t.Fatalf("generated path %q: %v", raw, err)
		}
		for _, doc := range docs {
			sameAsEval(t, tbl.Programs(), doc, p)
		}
	}
}

// TestCompiledFallsBackToEval covers the documents and paths a program
// does not answer itself: a document on another dictionary, and a path
// beyond the step budget.
func TestCompiledFallsBackToEval(t *testing.T) {
	tbl := storage.NewTable("T")
	tbl.Insert(xmltree.MustParse(`<a><b>1</b></a>`))
	foreign := xmltree.MustParse(`<a><b>1</b><b>2</b></a>`)
	sameAsEval(t, tbl.Programs(), foreign, xpath.MustParse(`/a[b=2]/b`))
	m := tbl.Programs().Bind(xpath.MustParse(`/a/b`))
	m.Select(foreign, nil)
	if m.Visited != int64(foreign.Len()) {
		t.Errorf("fallback visited %d nodes, want the document's %d", m.Visited, foreign.Len())
	}

	long := xpath.Path{}
	for i := 0; i < 40; i++ {
		long.Steps = append(long.Steps, xpath.Step{Axis: xpath.Descendant, Test: "*"})
	}
	if xpath.CompileFor(tbl.PathDict(), long) != nil {
		t.Fatal("CompileFor accepted a 40-step path")
	}
	sameAsEval(t, tbl.Programs(), tableDocs(tbl)[0], long)
}

// TestCompiledDeepDocuments covers ancestor chains longer than the
// matcher's on-stack buffers, and a dictionary deeper than a depth mask
// has bits, which sends the whole table to Eval.
func TestCompiledDeepDocuments(t *testing.T) {
	nest := func(depth int) *xmltree.Document {
		return xmltree.MustParse(strings.Repeat("<x>", depth) + "<y>1</y><z><y>2</y></z>" + strings.Repeat("</x>", depth))
	}
	paths := []string{`//x[y=1]/y`, `/x//x[x]/x//y`, `//x[x[x/y]]//z[y=2]/y`, `//x[.//y=2]/x/x/y`, `//y`, `/x/x/x`}
	for _, depth := range []int{40, 70} {
		tbl := storage.NewTable("T")
		tbl.Insert(nest(depth))
		tbl.Insert(nest(3))
		for _, raw := range paths {
			for _, doc := range tableDocs(tbl) {
				sameAsEval(t, tbl.Programs(), doc, xpath.MustParse(raw))
			}
		}
	}
}

// TestCompiledNodesVisited pins what Matcher.Visited counts: nothing
// for a document rejected on its path summary, and only the nodes up to
// the first match when Exists stops early.
func TestCompiledNodesVisited(t *testing.T) {
	tbl := storage.NewTable("T")
	tbl.Insert(xmltree.MustParse(`<s><k>stock</k><p><q>1</q><q>2</q><q>3</q></p></s>`))
	tbl.Insert(xmltree.MustParse(`<s><k>bond</k><r>AAA</r></s>`))
	docs := tableDocs(tbl)

	m := tbl.Programs().Bind(xpath.MustParse(`/s[r="AAA"]`))
	if m.Exists(docs[0]) || m.Visited != 0 {
		t.Errorf("document without /s/r: Exists visited %d nodes, want 0", m.Visited)
	}
	if !m.Exists(docs[1]) || m.Visited == 0 {
		t.Errorf("document with /s/r=AAA: visited %d nodes and did not match", m.Visited)
	}

	m = tbl.Programs().Bind(xpath.MustParse(`//q`))
	if !m.Exists(docs[0]) {
		t.Fatal("//q not found")
	}
	early := m.Visited
	m.Visited = 0
	if got := m.Select(docs[0], nil); len(got) != 3 {
		t.Fatalf("//q selected %v", got)
	}
	if early >= m.Visited {
		t.Errorf("Exists visited %d nodes, Select %d: no early exit", early, m.Visited)
	}
}

// fuzzDoc decodes bytes into a small document: each byte opens an
// element, adds an attribute or a text, or closes the current element.
func fuzzDoc(data []byte) *xmltree.Document {
	labels := []string{"x", "y", "z", "w"}
	values := []string{"1", "2", "a", " 1", "NaN", ""}
	b := xmltree.NewBuilder()
	b.Begin("x")
	depth := 1
	if len(data) > 48 {
		data = data[:48]
	}
	for _, c := range data {
		switch op, arg := c&3, int(c>>2); {
		case op == 0 && depth < 12:
			b.Begin(labels[arg%len(labels)])
			depth++
		case op == 1:
			b.Text(values[arg%len(values)])
		case op == 2 && depth > 1:
			b.End()
			depth--
		case op == 3:
			// Attributes are only legal before an element's content; a
			// leaf carrying one keeps the builder's invariants.
			b.Begin(labels[arg%len(labels)]).Attr(labels[(arg/4)%len(labels)], values[arg%len(values)]).End()
		}
	}
	for ; depth > 0; depth-- {
		b.End()
	}
	return b.Document()
}

// FuzzCompiledMatchesEval checks Program.Select against Eval for an
// arbitrary path string over a document decoded from the input bytes.
// Two documents share the table, so the program sees a dictionary with
// paths the document under test does not carry.
func FuzzCompiledMatchesEval(f *testing.F) {
	f.Add(`//x[x/y=1]`, []byte{0, 0, 4, 1})
	f.Add(`/x/*[@y="a"]//z`, []byte{7, 0, 8, 1, 2, 11})
	f.Add(`/x[.//y[z!=2]][w]/y`, []byte{4, 8, 1, 2, 12, 5, 2, 4})
	f.Add(`//*[@*]`, []byte{3, 19, 35})
	f.Add(`x//y`, []byte{0, 4, 4})
	f.Fuzz(func(t *testing.T, raw string, data []byte) {
		p, err := xpath.Parse(raw)
		if err != nil {
			return
		}
		tbl := storage.NewTable("T")
		tbl.Insert(xmltree.MustParse(`<x><y>1</y><z w="2"><x>a</x></z></x>`))
		tbl.Insert(fuzzDoc(data))
		for _, doc := range tableDocs(tbl) {
			sameAsEval(t, tbl.Programs(), doc, p)
		}
	})
}
