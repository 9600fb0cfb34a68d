package xmltree

import "strconv"

// Builder constructs documents programmatically in document order. It is
// the fast path used by the data generators, avoiding XML text
// round-trips. Calls must be properly nested: every Begin has a matching
// End, attributes and text attach to the innermost open element.
type Builder struct {
	doc   *Document
	stack []NodeID
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{doc: &Document{Dict: NewPathDict()}}
}

func (b *Builder) push(n Node) NodeID {
	id := NodeID(len(b.doc.Nodes))
	n.ID = id
	n.EndID = id
	b.doc.Nodes = append(b.doc.Nodes, n)
	parentPath := NoPath
	if len(b.stack) > 0 {
		parent := b.stack[len(b.stack)-1]
		b.doc.Nodes[id].Parent = parent
		b.doc.Nodes[id].Level = b.doc.Nodes[parent].Level + 1
		parentPath = b.doc.PathIDs[parent]
	} else {
		b.doc.Nodes[id].Parent = -1
		b.doc.Nodes[id].Level = 1
	}
	if n.Kind == Text {
		b.doc.PathIDs = append(b.doc.PathIDs, parentPath)
	} else {
		b.doc.PathIDs = append(b.doc.PathIDs, b.doc.Dict.Intern(parentPath, nodeLabel(n.Kind, n.Name)))
	}
	return id
}

// Begin opens a new element with the given name and returns the Builder
// for chaining.
func (b *Builder) Begin(name string) *Builder {
	if len(b.stack) == 0 && len(b.doc.Nodes) > 0 {
		panic("xmltree: Builder: multiple root elements")
	}
	id := b.push(Node{Kind: Element, Name: name})
	b.stack = append(b.stack, id)
	return b
}

// Attr adds an attribute to the innermost open element.
func (b *Builder) Attr(name, value string) *Builder {
	if len(b.stack) == 0 {
		panic("xmltree: Builder: Attr outside element")
	}
	b.push(Node{Kind: Attribute, Name: name, Value: value})
	return b
}

// Text appends a text node to the innermost open element.
func (b *Builder) Text(value string) *Builder {
	if len(b.stack) == 0 {
		panic("xmltree: Builder: Text outside element")
	}
	b.push(Node{Kind: Text, Value: value})
	return b
}

// End closes the innermost open element.
func (b *Builder) End() *Builder {
	if len(b.stack) == 0 {
		panic("xmltree: Builder: unbalanced End")
	}
	id := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.doc.Nodes[id].EndID = NodeID(len(b.doc.Nodes) - 1)
	return b
}

// Leaf emits <name>text</name> as a convenience.
func (b *Builder) Leaf(name, text string) *Builder {
	return b.Begin(name).Text(text).End()
}

// LeafFloat emits <name>v</name> with a compact numeric rendering.
func (b *Builder) LeafFloat(name string, v float64) *Builder {
	return b.Leaf(name, strconv.FormatFloat(v, 'f', -1, 64))
}

// LeafInt emits <name>v</name>.
func (b *Builder) LeafInt(name string, v int64) *Builder {
	return b.Leaf(name, strconv.FormatInt(v, 10))
}

// Document finalizes and returns the built document. It panics if any
// element is still open, which indicates a generator bug.
func (b *Builder) Document() *Document {
	if len(b.stack) != 0 {
		panic("xmltree: Builder: unclosed elements at Document()")
	}
	if len(b.doc.Nodes) == 0 {
		panic("xmltree: Builder: empty document")
	}
	return b.doc
}
