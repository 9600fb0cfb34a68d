package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Parse reads a single XML document from r and builds its node tree.
// Whitespace-only text between elements is dropped; attribute order is
// normalized (sorted by name) so that parsing is deterministic across
// inputs that differ only in attribute ordering.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	doc := &Document{Dict: NewPathDict()}
	var stack []NodeID

	appendNode := func(n Node) NodeID {
		id := NodeID(len(doc.Nodes))
		n.ID = id
		n.EndID = id
		doc.Nodes = append(doc.Nodes, n)
		parentPath := NoPath
		if len(stack) > 0 {
			parent := stack[len(stack)-1]
			doc.Nodes[id].Parent = parent
			doc.Nodes[id].Level = doc.Nodes[parent].Level + 1
			parentPath = doc.PathIDs[parent]
		} else {
			doc.Nodes[id].Parent = -1
			doc.Nodes[id].Level = 1
		}
		if n.Kind == Text {
			doc.PathIDs = append(doc.PathIDs, parentPath)
		} else {
			doc.PathIDs = append(doc.PathIDs, doc.Dict.Intern(parentPath, nodeLabel(n.Kind, n.Name)))
		}
		return id
	}

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) == 0 && len(doc.Nodes) > 0 {
				return nil, fmt.Errorf("xmltree: multiple root elements")
			}
			id := appendNode(Node{Kind: Element, Name: t.Name.Local})
			stack = append(stack, id)
			attrs := make([]xml.Attr, len(t.Attr))
			copy(attrs, t.Attr)
			sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name.Local < attrs[j].Name.Local })
			for _, a := range attrs {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue // namespace declarations are not data nodes
				}
				appendNode(Node{Kind: Attribute, Name: a.Name.Local, Value: a.Value})
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %q", t.Name.Local)
			}
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			doc.Nodes[id].EndID = NodeID(len(doc.Nodes) - 1)
		case xml.CharData:
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			if len(stack) == 0 {
				continue // text outside the root element is ignored
			}
			appendNode(Node{Kind: Text, Value: s})
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unexpected EOF inside element")
	}
	if len(doc.Nodes) == 0 {
		return nil, fmt.Errorf("xmltree: empty document")
	}
	return doc, nil
}

// ParseString parses a document held in a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// MustParse parses a document and panics on error. It is intended for
// tests and for statically known literals in examples.
func MustParse(s string) *Document {
	d, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return d
}

// Serialize writes the document back as XML. Text content is escaped;
// the output is stable and round-trips through Parse.
func Serialize(d *Document, w io.Writer) error {
	if d.Root() == nil {
		return fmt.Errorf("xmltree: serialize: empty document")
	}
	var writeNode func(id NodeID) error
	writeNode = func(id NodeID) error {
		n := d.Node(id)
		switch n.Kind {
		case Text:
			return escapeTo(w, n.Value)
		case Attribute:
			return nil // handled by the owner element
		}
		if _, err := io.WriteString(w, "<"+n.Name); err != nil {
			return err
		}
		for c := id + 1; c <= n.EndID; c = d.Nodes[c].EndID + 1 {
			cn := d.Node(c)
			if cn.Kind != Attribute {
				continue
			}
			if _, err := io.WriteString(w, " "+cn.Name+`="`); err != nil {
				return err
			}
			if err := escapeTo(w, cn.Value); err != nil {
				return err
			}
			if _, err := io.WriteString(w, `"`); err != nil {
				return err
			}
		}
		hasContent := false
		for c := id + 1; c <= n.EndID; c = d.Nodes[c].EndID + 1 {
			if d.Node(c).Kind != Attribute {
				hasContent = true
				break
			}
		}
		if !hasContent {
			_, err := io.WriteString(w, "/>")
			return err
		}
		if _, err := io.WriteString(w, ">"); err != nil {
			return err
		}
		for c := id + 1; c <= n.EndID; c = d.Nodes[c].EndID + 1 {
			if d.Node(c).Kind == Attribute {
				continue
			}
			if err := writeNode(c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "</"+n.Name+">")
		return err
	}
	return writeNode(0)
}

// SerializeString returns the XML text of the document.
func SerializeString(d *Document) string {
	var sb strings.Builder
	if err := Serialize(d, &sb); err != nil {
		return ""
	}
	return sb.String()
}

func escapeTo(w io.Writer, s string) error {
	return xml.EscapeText(w, []byte(s))
}
