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
)

// sharedAsEval checks one document through two matchers of one path
// that have seen the same documents before: m scans documents of known
// shapes through its visit lists, ref walks every document. Select and
// Exists must give Eval's answer, and each must leave both matchers'
// Visited counts equal.
func sharedAsEval(t testing.TB, m, ref *xpath.Matcher, doc *xmltree.Document, p xpath.Path) {
	t.Helper()
	want := fmt.Sprint(xpath.Eval(doc, p))
	if got := fmt.Sprint(m.Select(doc, nil)); got != want {
		t.Fatalf("%s on doc %d (%s), shared matcher:\n Select = %v\n Eval   = %v", p, doc.DocID, xmltree.SerializeString(doc), got, want)
	}
	ref.Select(doc, nil)
	if m.Visited != ref.Visited {
		t.Fatalf("%s on doc %d: Select visited %d nodes in all, %d walking every document", p, doc.DocID, m.Visited, ref.Visited)
	}
	if got := m.Exists(doc); got != (want != "[]") {
		t.Fatalf("%s on doc %d: shared matcher's Exists = %v, Eval selects %s", p, doc.DocID, got, want)
	}
	ref.Exists(doc)
	if m.Visited != ref.Visited {
		t.Fatalf("%s on doc %d: Exists visited %d nodes in all, %d walking every document", p, doc.DocID, m.Visited, ref.Visited)
	}
}

// bindPair binds p twice from the table's cache: a matcher as a scan
// holds it, and one that walks every document.
func bindPair(tbl *storage.Table, p xpath.Path) (m, ref *xpath.Matcher) {
	m, ref = tbl.Programs().Bind(p), tbl.Programs().Bind(p)
	ref.IgnoreShapes()
	return m, ref
}

// revalue copies a document's nodes with every text and attribute value
// drawn afresh: a document of the same shape once committed.
func revalue(r *rand.Rand, d *xmltree.Document) *xmltree.Document {
	values := []string{"1", "2", " 1 ", "1.0", "a", "NaN", "", "-3e2"}
	nodes := append([]xmltree.Node(nil), d.Nodes...)
	for i := range nodes {
		if nodes[i].Kind != xmltree.Element {
			nodes[i].Value = values[r.Intn(len(values))]
		}
	}
	return &xmltree.Document{Nodes: nodes}
}

// TestSharedMatcherMatchesEval is the seeded property behind visit
// lists: documents drawn from a few templates, with values varied so
// shapes repeat, mixed with documents of shapes of their own, scanned
// twice through one matcher per generated path. Every answer must be
// Eval's, and Visited must equal that of the same documents walked.
func TestSharedMatcherMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	templates := make([]*xmltree.Document, 5)
	for i := range templates {
		templates[i] = genDoc(r, 30)
	}
	docs := make([]*xmltree.Document, 240)
	for i := range docs {
		if r.Intn(5) == 0 {
			docs[i] = genDoc(r, 30)
		} else {
			docs[i] = revalue(r, templates[r.Intn(len(templates))])
		}
	}
	_, tbl := loadTable(t, docs...)
	docs = tableDocs(tbl)
	if shapes, _ := tbl.Shapes(); shapes >= len(docs)/2 {
		t.Fatalf("%d shapes over %d documents: shapes do not repeat", shapes, len(docs))
	}
	listed := 0
	for i := 0; i < 300; i++ {
		raw := genPath(r, i%4 == 0, 0)
		p, err := xpath.Parse(raw)
		if err != nil {
			t.Fatalf("generated path %q: %v", raw, err)
		}
		m, ref := bindPair(tbl, p)
		for pass := 0; pass < 2; pass++ {
			for _, doc := range docs {
				sharedAsEval(t, m, ref, doc, p)
			}
		}
		if m.VisitLists() > 0 {
			listed++
		}
	}
	if listed < 100 {
		t.Errorf("only %d of 300 paths scanned through visit lists", listed)
	}
}

// TestSharedMatcherMatchesEvalOnBenchmarkData runs the scan-untuned
// templates and the hand-picked path shapes through one matcher per
// path over every SECURITY and XMark document.
func TestSharedMatcherMatchesEvalOnBenchmarkData(t *testing.T) {
	tp, err := tpox.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	xm, err := xmark.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	sec, _ := tp.Table(tpox.TableSecurity)
	auctions, _ := xm.Table(xmark.Table)
	for _, tbl := range []*storage.Table{sec, auctions} {
		paths := normalizedPaths(t, tbl.Name, append(scanTemplates, xmark.Queries()...))
		for _, s := range shapePaths {
			paths = append(paths, xpath.MustParse(s))
		}
		docs := tableDocs(tbl)
		for _, p := range paths {
			m, ref := bindPair(tbl, p)
			for _, doc := range docs {
				sharedAsEval(t, m, ref, doc, p)
			}
		}
	}
}

// TestShapelessDocumentsPastTheBound fills a table with 2,048 distinct
// shapes, more than its dictionary keeps: the documents past the bound
// carry none, the table counts them, and a shared matcher still answers
// them as Eval does.
func TestShapelessDocumentsPastTheBound(t *testing.T) {
	const distinct = 1 << 11
	var docs []*xmltree.Document
	for i := 0; i < distinct; i++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, `<a n="%d">`, i%7)
		for b := 0; b < 11; b++ {
			sb.WriteString([]string{"<b>1</b>", "<c><b>2</b></c>"}[i>>b&1])
		}
		sb.WriteString("</a>")
		docs = append(docs, xmltree.MustParse(sb.String()))
	}
	// Repeat some shapes, on both sides of the bound.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		docs = append(docs, revalue(r, docs[i*97%distinct]))
	}
	_, tbl := loadTable(t, docs...)
	docs = tableDocs(tbl)
	shapes, unshaped := tbl.Shapes()
	if shapes == 0 || shapes >= distinct || unshaped < distinct-shapes {
		t.Fatalf("%d shapes, %d documents without one, over %d distinct structures", shapes, unshaped, distinct)
	}
	if last := docs[distinct-1]; last.Shape() != xmltree.NoShape {
		t.Errorf("document %d past the bound has shape %d", last.DocID, last.Shape())
	}
	for _, raw := range []string{`/a[b=1]`, `/a[c/b=2][@n>3]/b`, `//c[b=2]`, `/a[.//b="1"]`, `/a/c[b!=2]`} {
		p := xpath.MustParse(raw)
		m, ref := bindPair(tbl, p)
		for pass := 0; pass < 2; pass++ {
			for _, doc := range docs {
				sharedAsEval(t, m, ref, doc, p)
			}
		}
	}
}
