package xmltree_test

import (
	"math"
	"strings"
	"testing"

	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/xmark"
	"xixa/internal/xmltree"
)

// sameNumber compares two parsed numbers bit for bit, NaN equal to NaN.
func sameNumber(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkColumns recomputes every node's EndID and typed value from the
// nodes and compares the document's columns with them: the cached
// (string, number, numeric) must be TrimSpace(TextOf) and ParseNumeric
// of it, cached exactly for attributes, text nodes and elements with at
// most one text descendant; TrimmedText and NumericValue must give the
// recomputed value for every node, cached or not.
func checkColumns(t *testing.T, what string, d *xmltree.Document) {
	t.Helper()
	ends := d.Ends()
	if len(ends) != d.Len() {
		t.Fatalf("%s: %d ends for %d nodes", what, len(ends), d.Len())
	}
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if ends[i] != n.EndID {
			t.Fatalf("%s node %d: end %d, EndID %d", what, i, ends[i], n.EndID)
		}
		wantS := strings.TrimSpace(d.TextOf(n.ID))
		wantV, wantNum := xmltree.ParseNumeric(wantS)
		texts := 0
		for j := n.ID + 1; j <= n.EndID; j++ {
			if d.Nodes[j].Kind == xmltree.Text {
				texts++
			}
		}
		s, v, numeric, ok := xmltree.CachedValue(d, n.ID)
		if want := n.Kind != xmltree.Element || texts <= 1; ok != want {
			t.Fatalf("%s node %d (%s, %d text descendants): cached %v, want %v", what, i, n.Kind, texts, ok, want)
		}
		if ok && (s != wantS || numeric != wantNum || !sameNumber(v, wantV)) {
			t.Fatalf("%s node %d: cached (%q, %v, %v), recomputed (%q, %v, %v)", what, i, s, v, numeric, wantS, wantV, wantNum)
		}
		if got := d.TrimmedText(n.ID); got != wantS {
			t.Fatalf("%s node %d: TrimmedText %q, want %q", what, i, got, wantS)
		}
		if v, numeric := d.NumericValue(n.ID); numeric != wantNum || !sameNumber(v, wantV) {
			t.Fatalf("%s node %d: NumericValue (%v, %v), want (%v, %v)", what, i, v, numeric, wantV, wantNum)
		}
	}
}

// TestDocumentColumnsMatchTextOf checks the columns of every committed
// TPoX and XMark document, and of hand-built edge cases, against values
// recomputed from the nodes.
func TestDocumentColumnsMatchTextOf(t *testing.T) {
	tp, err := tpox.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	xm, err := xmark.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*storage.Database{tp, xm} {
		for _, name := range db.TableNames() {
			tbl, _ := db.Table(name)
			if tbl.Scan(func(d *xmltree.Document) bool {
				checkColumns(t, name, d)
				return true
			}) == 0 {
				t.Fatalf("table %s is empty", name)
			}
		}
	}

	edge := []*xmltree.Document{
		xmltree.MustParse(`<r><v>NaN</v><w>nan</w><x>-NaN</x></r>`),
		xmltree.MustParse(`<r><v> 12 </v><w>
			-3.5e2
		</w></r>`),
		xmltree.MustParse(`<r><v>1e400</v><w>-1e400</w><x>1e-400</x></r>`),
		xmltree.MustParse(`<r><v>+Inf</v><w>-infinity</w><x>Infinity</x><y>inf1</y></r>`),
		xmltree.MustParse(`<r><v>0x1p-2</v><w>1_000</w><x>.5</x><y>5.</y><z>2005-01-01</z><u>-0</u></r>`),
		xmltree.MustParse(`<r><e/><f></f><g><h/></g></r>`),
		xmltree.MustParse(`<r a=" 7 " b="x" c="" d="NaN"><e f="1e400"/></r>`),
		xmltree.MustParse(`<r>a<b>1</b>c<d><e> 2 </e></d></r>`),
		xmltree.MustParse(`<r><a><b> 5 </b></a><c><d>1</d><e>2</e></c></r>`),
		xmltree.NewBuilder().Begin("r").Text("").Begin("s").Text("  ").End().
			Begin("t").Text(" 3 ").Text("4").End().Begin("u").Attr("k", " 9 ").Text(" 8 ").End().End().Document(),
	}
	for _, d := range edge {
		what := xmltree.SerializeString(d)
		if d.Ends() != nil {
			t.Fatalf("%s: columns before InternPaths", what)
		}
		d.InternPaths(d.Dict)
		checkColumns(t, what, d)
	}
}
