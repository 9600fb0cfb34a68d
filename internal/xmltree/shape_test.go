package xmltree_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/xmark"
	"xixa/internal/xmltree"
)

// shapeKey renders a document's (PathID, Kind) sequence.
func shapeKey(d *xmltree.Document) string {
	var sb strings.Builder
	for i := range d.Nodes {
		fmt.Fprintf(&sb, "%d.%d,", d.PathIDs[i], d.Nodes[i].Kind)
	}
	return sb.String()
}

// parentsFromShape derives every node's parent from the (PathID, Kind)
// sequence alone: the nearest earlier element whose PathID is the
// node's parent path — the node's own PathID for a text node.
func parentsFromShape(d *xmltree.Document) []xmltree.NodeID {
	entries := d.Dict.Snapshot()
	last := map[xmltree.PathID]xmltree.NodeID{} // newest element per PathID
	out := make([]xmltree.NodeID, len(d.Nodes))
	for i := range d.Nodes {
		pid := d.PathIDs[i]
		want := pid
		if d.Nodes[i].Kind != xmltree.Text {
			want = entries[pid].Parent
		}
		out[i] = -1
		if p, ok := last[want]; ok && want != xmltree.NoPath {
			out[i] = p
		}
		if d.Nodes[i].Kind == xmltree.Element {
			last[pid] = xmltree.NodeID(i)
		}
	}
	return out
}

// revalue copies a document's nodes with every text and attribute value
// drawn afresh: a hand-built document of the same structure.
func revalue(r *rand.Rand, d *xmltree.Document) *xmltree.Document {
	values := []string{"1", "2", " 3 ", "NaN", "abc", ""}
	nodes := append([]xmltree.Node(nil), d.Nodes...)
	for i := range nodes {
		if nodes[i].Kind != xmltree.Element {
			nodes[i].Value = values[r.Intn(len(values))]
		}
	}
	return &xmltree.Document{Nodes: nodes}
}

// TestEqualShapesHaveEqualTrees checks, for every committed TPoX and
// XMark document and for generated documents loaded with value-only
// variants, that a document's shape is a function of its (PathID, Kind)
// sequence and back, that the sequence alone yields the Parent column,
// and so that two documents of one shape have equal Parent, Level and
// EndID columns.
func TestEqualShapesHaveEqualTrees(t *testing.T) {
	tp, err := tpox.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	xm, err := xmark.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	gen := storage.NewDatabase()
	gen.MustCreateTable("G")
	r := rand.New(rand.NewSource(7))
	var docs []*xmltree.Document
	for i := 0; i < 20; i++ {
		tmpl := xmltree.MustParse(fmt.Sprintf(`<a x="%d"><b>1</b>%s<c><b>t</b>u<d y="2"/></c>%s</a>`,
			i, strings.Repeat("<b><b>2</b></b>", i%4), strings.Repeat("<c>v</c>", i%3)))
		docs = append(docs, tmpl)
		for k := 0; k < 3; k++ {
			docs = append(docs, revalue(r, tmpl))
		}
	}
	if _, err := gen.Load("G", docs...); err != nil {
		t.Fatal(err)
	}

	for _, db := range []*storage.Database{tp, xm, gen} {
		for _, name := range db.TableNames() {
			tbl, _ := db.Table(name)
			first := map[xmltree.ShapeID]*xmltree.Document{}
			byKey := map[string]xmltree.ShapeID{}
			tbl.Scan(func(d *xmltree.Document) bool {
				s := d.Shape()
				if s == xmltree.NoShape {
					t.Fatalf("%s doc %d: committed document without a shape", name, d.DocID)
				}
				key := shapeKey(d)
				if prev, ok := byKey[key]; ok && prev != s {
					t.Fatalf("%s doc %d: shape %d, an equal sequence had shape %d", name, d.DocID, s, prev)
				}
				byKey[key] = s
				for i, p := range parentsFromShape(d) {
					if p != d.Nodes[i].Parent {
						t.Fatalf("%s doc %d node %d: parent %d from the shape, %d in the tree", name, d.DocID, i, p, d.Nodes[i].Parent)
					}
				}
				f, ok := first[s]
				if !ok {
					first[s] = d
					return true
				}
				if shapeKey(f) != key {
					t.Fatalf("%s docs %d and %d: shape %d, different sequences", name, f.DocID, d.DocID, s)
				}
				for i := range d.Nodes {
					a, b := &f.Nodes[i], &d.Nodes[i]
					if a.Parent != b.Parent || a.Level != b.Level || a.EndID != b.EndID {
						t.Fatalf("%s docs %d and %d of shape %d, node %d: (parent, level, end) (%d, %d, %d) vs (%d, %d, %d)",
							name, f.DocID, d.DocID, s, i, a.Parent, a.Level, a.EndID, b.Parent, b.Level, b.EndID)
					}
				}
				return true
			})
			shapes, unshaped := tbl.Shapes()
			if shapes != len(first) || len(byKey) != len(first) || unshaped != 0 {
				t.Errorf("%s: %d shapes, %d unshaped documents; the scan saw %d shapes and %d sequences",
					name, shapes, unshaped, len(first), len(byKey))
			}
			t.Logf("%s: %d documents, %d shapes", name, tbl.DocCount(), shapes)
		}
	}
}

// TestShapeBound interns more distinct shapes than a dictionary keeps:
// past the bound a new shape gets none, while a known one still does.
func TestShapeBound(t *testing.T) {
	dict := xmltree.NewPathDict()
	unique := func(i int) *xmltree.Document {
		var sb strings.Builder
		sb.WriteString("<a>")
		for b := 0; b < 11; b++ {
			sb.WriteString([]string{"<b/>", "<c/>"}[i>>b&1])
		}
		sb.WriteString("</a>")
		return xmltree.MustParse(sb.String())
	}
	for i := 0; i < xmltree.MaxShapes+10; i++ {
		d := unique(i)
		d.InternPaths(dict)
		want := xmltree.ShapeID(i)
		if i >= xmltree.MaxShapes {
			want = xmltree.NoShape
		}
		if got := d.Shape(); got != want {
			t.Fatalf("document %d: shape %d, want %d", i, got, want)
		}
	}
	if got := dict.Shapes(); got != xmltree.MaxShapes {
		t.Errorf("dictionary holds %d shapes, want %d", got, xmltree.MaxShapes)
	}
	d := unique(5)
	d.InternPaths(dict)
	if got := d.Shape(); got != 5 {
		t.Errorf("a known shape past the bound: %d, want 5", got)
	}
	if got := xmltree.MustParse(`<a><b/></a>`).Shape(); got != xmltree.NoShape {
		t.Errorf("a document InternPaths has not summarized has shape %d", got)
	}
}
