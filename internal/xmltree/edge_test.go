package xmltree

import (
	"strings"
	"testing"
)

func TestSerializeEmptyDocumentFails(t *testing.T) {
	var d Document
	if err := Serialize(&d, &strings.Builder{}); err == nil {
		t.Error("serializing an empty document should fail")
	}
	if got := SerializeString(&d); got != "" {
		t.Errorf("SerializeString(empty) = %q", got)
	}
}

func TestLabelPathOfTextNode(t *testing.T) {
	d := MustParse(`<a><b>text</b></a>`)
	var textID NodeID = -1
	for i := range d.Nodes {
		if d.Nodes[i].Kind == Text {
			textID = d.Nodes[i].ID
		}
	}
	if textID < 0 {
		t.Fatal("no text node")
	}
	// Text nodes report their parent element's path.
	if got := d.LabelPath(textID); got != "/a/b" {
		t.Errorf("LabelPath(text) = %q", got)
	}
}

func TestElementChildrenSkipsAttributesAndText(t *testing.T) {
	d := MustParse(`<a x="1"><b/>text<c/></a>`)
	kids := d.ElementChildren(0)
	if len(kids) != 2 {
		t.Fatalf("element children = %d, want 2", len(kids))
	}
	if d.Node(kids[0]).Name != "b" || d.Node(kids[1]).Name != "c" {
		t.Errorf("children = %s, %s", d.Node(kids[0]).Name, d.Node(kids[1]).Name)
	}
}

func TestKindString(t *testing.T) {
	if Element.String() != "element" || Attribute.String() != "attribute" || Text.String() != "text" {
		t.Error("kind names wrong")
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestEmptyElementRoundTrip(t *testing.T) {
	d := MustParse(`<a><b/><c></c></a>`)
	text := SerializeString(d)
	// Both render as self-closing.
	if strings.Count(text, "/>") != 2 {
		t.Errorf("self-closing rendering: %s", text)
	}
	d2, err := ParseString(text)
	if err != nil || d2.Len() != d.Len() {
		t.Errorf("round trip failed: %v", err)
	}
}

func TestDeeplyNestedDocument(t *testing.T) {
	// 200-deep nesting: no recursion blowups in parse, serialize, or
	// path computation.
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString("<n>")
	}
	sb.WriteString("x")
	for i := 0; i < 200; i++ {
		sb.WriteString("</n>")
	}
	d, err := ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	deepest := NodeID(-1)
	for i := range d.Nodes {
		if d.Nodes[i].Kind == Element {
			deepest = d.Nodes[i].ID
		}
	}
	if lvl := d.Node(deepest).Level; lvl != 200 {
		t.Errorf("deepest level = %d", lvl)
	}
	if got := d.TextOf(0); got != "x" {
		t.Errorf("TextOf(root) = %q", got)
	}
	if !strings.HasPrefix(d.LabelPath(deepest), "/n/n/") {
		t.Error("LabelPath of deep node wrong")
	}
	if _, err := ParseString(SerializeString(d)); err != nil {
		t.Errorf("deep round trip: %v", err)
	}
}

// ElementChildren returns the element-kind children of the node.
func (d *Document) ElementChildren(id NodeID) []NodeID {
	var out []NodeID
	for c := id + 1; c <= d.Nodes[id].EndID; c = d.Nodes[c].EndID + 1 {
		if d.Nodes[c].Kind == Element {
			out = append(out, c)
		}
	}
	return out
}
