// Package xmltree implements the XML document model used throughout the
// advisor: ordered trees of element, attribute, and text nodes with
// document-order node identifiers, level numbers, and parent links.
//
// The model corresponds to the node storage of a native XML column in the
// paper's substrate (DB2 9 pureXML). Every node in a document is assigned
// a NodeID in document order, which is what path-value indexes store and
// what the execution engine fetches.
package xmltree

import (
	"fmt"
	"strings"
)

// Kind discriminates the node kinds stored in a document tree.
type Kind uint8

const (
	// Element is an XML element node.
	Element Kind = iota
	// Attribute is an XML attribute node (a child of its owner element).
	Attribute
	// Text is a text node; it carries the character data of its parent.
	Text
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Attribute:
		return "attribute"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// NodeID identifies a node within a single document in document order.
// IDs are dense: the root element has ID 0 and a document with n nodes
// uses IDs 0..n-1. Document order comparisons reduce to integer
// comparisons on NodeID.
type NodeID int32

// Node is a single node of a parsed XML document. Nodes are owned by
// their Document and referenced by index; they must not be copied.
type Node struct {
	ID       NodeID
	Kind     Kind
	Name     string // element/attribute name; empty for text nodes
	Value    string // attribute value or text content; empty for elements
	Parent   NodeID // -1 for the root element
	Level    int32  // root element is level 1
	Children []NodeID
	// EndID is the largest NodeID in this node's subtree, enabling O(1)
	// ancestor/descendant tests: d is a descendant of a iff
	// a.ID < d.ID <= a.EndID.
	EndID NodeID
}

// IsDescendantOf reports whether n lies strictly below a in the tree,
// using the (ID, EndID] interval encoding.
func (n *Node) IsDescendantOf(a *Node) bool {
	return a.ID < n.ID && n.ID <= a.EndID
}

// Document is a parsed XML document: a flat, document-ordered slice of
// nodes. The zero value is an empty document.
type Document struct {
	// DocID is the identity of the document within its collection.
	DocID int64
	// Nodes holds every node in document order; Nodes[i].ID == i.
	Nodes []Node
	// Dict is the path dictionary PathIDs refer to. Parse and Builder
	// attach a per-document dictionary; storage.Table.Insert rebases it
	// onto the table's shared dictionary. Nil for documents constructed
	// by hand (use InternPaths to attach one).
	Dict *PathDict
	// PathIDs holds the interned rooted-label-path ID of each node
	// (parallel to Nodes). Text nodes carry their parent's path ID.
	PathIDs []PathID

	// paths summarizes PathIDs; InternPaths fills it (see PathSummary).
	paths pathSummary
}

// Root returns the root element of the document, or nil if empty.
func (d *Document) Root() *Node {
	if len(d.Nodes) == 0 {
		return nil
	}
	return &d.Nodes[0]
}

// Node returns the node with the given ID. It panics if id is out of
// range, which indicates index corruption rather than a user error.
func (d *Document) Node(id NodeID) *Node {
	return &d.Nodes[id]
}

// Len returns the number of nodes in the document.
func (d *Document) Len() int { return len(d.Nodes) }

// TextOf returns the concatenated text content of the element subtree
// rooted at id, in document order. For attribute and text nodes it
// returns their value directly. This mirrors the typed-value extraction
// an XML index performs when building keys.
func (d *Document) TextOf(id NodeID) string {
	n := d.Node(id)
	switch n.Kind {
	case Attribute, Text:
		return n.Value
	}
	// All descendants occupy the contiguous ID range (id, EndID]. A lone
	// text descendant (the common leaf shape) is returned as is; the
	// builder only starts at the second one.
	first := ""
	var sb strings.Builder
	texts := 0
	for i := n.ID + 1; i <= n.EndID; i++ {
		c := &d.Nodes[i]
		if c.Kind != Text {
			continue
		}
		switch texts {
		case 0:
			first = c.Value
		case 1:
			sb.WriteString(first)
			sb.WriteString(c.Value)
		default:
			sb.WriteString(c.Value)
		}
		texts++
	}
	if texts <= 1 {
		return first
	}
	return sb.String()
}

// NumericValue extracts the typed numeric value of the node, following
// the XML Schema double lexical space (leading/trailing space trimmed).
// ok is false when the content does not parse as a number. Callers that
// already hold the extracted text should use ParseNumeric instead to
// avoid a second subtree walk.
func (d *Document) NumericValue(id NodeID) (v float64, ok bool) {
	return ParseNumeric(d.TextOf(id))
}

// LabelPath returns the rooted label path of the node, e.g.
// "/Security/SecInfo/Sector" or "/Security/@id" for attributes.
// Text nodes report their parent's path. With an attached path
// dictionary this is a dictionary lookup; the fallback climbs parent
// links iteratively, so arbitrarily deep documents cannot overflow the
// stack.
func (d *Document) LabelPath(id NodeID) string {
	if d.Dict != nil && int(id) < len(d.PathIDs) {
		pid := d.PathIDs[id]
		if pid < 0 {
			return "/"
		}
		return d.Dict.Path(pid)
	}
	n := d.Node(id)
	if n.Kind == Text {
		if n.Parent < 0 {
			return "/"
		}
		n = d.Node(n.Parent)
	}
	size := 0
	for cur := n; ; cur = d.Node(cur.Parent) {
		size += 1 + len(cur.Name)
		if cur.Kind == Attribute {
			size++ // the '@' marker
		}
		if cur.Parent < 0 {
			break
		}
	}
	buf := make([]byte, size)
	pos := size
	for cur := n; ; cur = d.Node(cur.Parent) {
		pos -= len(cur.Name)
		copy(buf[pos:], cur.Name)
		if cur.Kind == Attribute {
			pos--
			buf[pos] = '@'
		}
		pos--
		buf[pos] = '/'
		if cur.Parent < 0 {
			break
		}
	}
	return string(buf)
}

// ElementChildren returns the element-kind children of the node.
func (d *Document) ElementChildren(id NodeID) []NodeID {
	n := d.Node(id)
	out := make([]NodeID, 0, len(n.Children))
	for _, c := range n.Children {
		if d.Nodes[c].Kind == Element {
			out = append(out, c)
		}
	}
	return out
}

// StorageBytes estimates the stored size of the document in bytes,
// counting per-node overhead plus name and value bytes. The storage
// layer and the statistics collector use this to size tables and
// indexes consistently.
func (d *Document) StorageBytes() int64 {
	const perNodeOverhead = 16 // ID, kind, parent, level, child slots
	var total int64
	for i := range d.Nodes {
		n := &d.Nodes[i]
		total += perNodeOverhead + int64(len(n.Name)) + int64(len(n.Value))
	}
	return total
}
