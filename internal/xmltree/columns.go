package xmltree

import "strings"

// A committed document carries two columns beside Nodes, built once by
// InternPaths when the document joins its table's dictionary: the EndID
// of every node, and the typed value of every node whose value is one
// string. A table scan reads them instead of Nodes: it skips a subtree
// through ends without touching the node, and compares against a value
// parsed once per document rather than once per comparison.
//
// The columns describe the document as it was attached, so a document
// is immutable once InternPaths has run; an update edits a fresh copy,
// and the commit builds that copy's columns. Documents without columns
// (uncommitted or hand-built ones) answer from Nodes.

// leafValue is a node's typed value: its text with surrounding space
// trimmed, and that text as a number when numeric is set. Attributes
// and text nodes have one; so does an element with at most one text
// descendant — the text's value, or the empty string. An element with
// several text descendants has none (texts is 2): its value is the
// concatenation TextOf builds on demand.
type leafValue struct {
	str string
	num float64
	// texts counts an element's text descendants, saturating at 2.
	texts uint8
	// numeric is set when str parses as a number. It is a bit of its
	// own, not a NaN in num: text "NaN" is the number NaN, for which
	// [x != 5] holds, while a non-numeric text fails every numeric
	// comparison.
	numeric bool
}

// Ends returns the EndID column: Ends()[i] == Nodes[i].EndID. It is nil
// until InternPaths has attached the document, and must not be
// modified.
func (d *Document) Ends() []NodeID { return d.ends }

// summarize fills the path summary and the columns in one forward pass.
// A text node's value is added to each ancestor up to the first that
// already holds two: an element's value is its first text's until a
// second arrives, and ancestors of an element with two hold two as
// well, so each node is raised at most twice and the pass stays linear
// however deep the tree.
func (d *Document) summarize() {
	ps := pathSummary{max: NoPath, done: true}
	n := len(d.Nodes)
	d.ends = make([]NodeID, n)
	d.vals = make([]leafValue, n)
	for i := range d.Nodes {
		if id := d.PathIDs[i]; id >= 0 {
			ps.sig.Add(id)
			ps.max = max(ps.max, id)
		}
		nd := &d.Nodes[i]
		d.ends[i] = nd.EndID
		if nd.Kind == Element {
			continue
		}
		v := &d.vals[i]
		v.str = strings.TrimSpace(nd.Value)
		v.num, v.numeric = ParseNumeric(v.str)
		if nd.Kind != Text {
			continue
		}
		for p := nd.Parent; p >= 0; p = d.Nodes[p].Parent {
			pv := &d.vals[p]
			if pv.texts == 2 {
				break
			}
			if pv.texts == 0 {
				*pv = leafValue{str: v.str, num: v.num, numeric: v.numeric, texts: 1}
			} else {
				*pv = leafValue{texts: 2}
			}
		}
	}
	d.paths = ps
}
