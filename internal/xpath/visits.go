package xpath

import "xixa/internal/xmltree"

// Visit lists: which nodes Matcher.scan's loop confirms and compares
// depends on the document's PathIDs, kinds and ends alone — the match and below
// bits of the path's table and the subtree jumps — so it is one list
// for every document of one shape (xmltree.ShapeID). A matcher keeps
// the lists it has built, keyed by (shape, path table, context node),
// for the statement it serves: one goroutine, no lock. It builds a
// shape's lists on the shape's second document, so a document seen
// once — an index plan's few fetched documents, a table of unique
// shapes — is walked as before and pays for no list.

// visitSpan locates one visit list in visitLists.arena, with the end
// and level of the list's context.
type visitSpan struct {
	off, n int32
	to     xmltree.NodeID
	level  int32
}

// visitLists holds a matcher's lists: per shape its flags and the
// spine's list, and the predicates' lists by key, all spans of one
// arena.
type visitLists struct {
	shapes []uint8     // per ShapeID: shapeSeen, shapeMay, shapeSpine
	few    [8]uint8    // shapes' first array: most tables have a few shapes
	spines []visitSpan // per ShapeID with shapeSpine: the spine's list
	preds  map[uint64]visitSpan
	arena  []xmltree.NodeID
}

// Per-shape flags.
const (
	shapeSeen  uint8 = 1 << iota // a document of the shape was scanned
	shapeMay                     // the shape carries every required pattern
	shapeSpine                   // spines holds the shape's spine list
)

// reset forgets every shape and list, keeping the memory.
func (l *visitLists) reset() {
	clear(l.shapes)
	clear(l.preds)
	l.arena = l.arena[:0]
}

// visits returns the visit list of the path from the context node ctx
// (-1 for the document node) in a document of the current shape,
// building it on first use.
func (m *Matcher) visits(doc *xmltree.Document, path *progPath, ctx xmltree.NodeID) visitSpan {
	l := &m.lists
	if path == &m.prog.spine { // scanned from one context only
		if l.shapes[m.shape]&shapeSpine == 0 {
			if int(m.shape) >= len(l.spines) {
				l.spines = append(l.spines, make([]visitSpan, int(m.shape)+1-len(l.spines))...)
			}
			l.spines[m.shape] = m.build(doc, path, ctx)
			l.shapes[m.shape] |= shapeSpine
		}
		return l.spines[m.shape]
	}
	key := uint64(m.shape)<<40 | uint64(path.table)<<32 | uint64(uint32(ctx+1))
	if sp, ok := l.preds[key]; ok {
		return sp
	}
	if l.preds == nil {
		l.preds = make(map[uint64]visitSpan)
	}
	sp := m.build(doc, path, ctx)
	l.preds[key] = sp
	return sp
}

// build appends to the arena the visit list of the path from the
// context node ctx: the nodes scan's loop confirms and compares, found
// by that loop without them, run to the end of the context.
func (m *Matcher) build(doc *xmltree.Document, path *progPath, ctx xmltree.NodeID) visitSpan {
	from, to, level := m.context(doc, ctx)
	match, below := m.tab.match[path.table], m.tab.below[path.table]
	pids, ends := doc.PathIDs[:to+1], doc.Ends()[:to+1]
	bit := uint(level)
	off := len(m.lists.arena)
	for j := from; j <= to; j++ {
		pid := pids[j]
		deep := below[pid]>>bit&1 != 0
		if match[pid]>>bit&1 == 0 {
			if !deep {
				j = ends[j]
			}
			continue
		}
		if deep && doc.Nodes[j].Kind == xmltree.Text {
			continue
		}
		m.lists.arena = append(m.lists.arena, j)
		if !deep {
			j = ends[j]
		}
	}
	return visitSpan{off: int32(off), n: int32(len(m.lists.arena) - off), to: to, level: level}
}

// context returns the subtree range and level of the context node ctx,
// -1 standing for the document node.
func (m *Matcher) context(doc *xmltree.Document, ctx xmltree.NodeID) (from, to xmltree.NodeID, level int32) {
	if ctx < 0 {
		return 0, xmltree.NodeID(len(doc.Nodes) - 1), 0
	}
	return ctx + 1, doc.Ends()[ctx], int32(m.tab.depth[doc.PathIDs[ctx]])
}
