package xpath

import (
	"slices"
	"strings"

	"xixa/internal/xmltree"
)

// Eval evaluates an absolute path against a document and returns the
// matching node IDs in document order. Predicates use existential XPath
// semantics: a comparison predicate holds if any node selected by its
// relative path satisfies the comparison.
func Eval(doc *xmltree.Document, p Path) []xmltree.NodeID {
	if p.Relative {
		root := doc.Root()
		if root == nil {
			return nil
		}
		return EvalFrom(doc, root.ID, p)
	}
	ctx := []xmltree.NodeID{} // virtual document node is represented implicitly
	return evalSteps(doc, ctx, true, p.Steps)
}

// EvalFrom evaluates a relative path with the given context node.
func EvalFrom(doc *xmltree.Document, ctx xmltree.NodeID, p Path) []xmltree.NodeID {
	if !p.Relative {
		return Eval(doc, p)
	}
	if len(p.Steps) == 0 {
		return []xmltree.NodeID{ctx}
	}
	return evalSteps(doc, []xmltree.NodeID{ctx}, false, p.Steps)
}

// evalSteps advances the context set through each step. fromDoc marks
// that the initial context is the document node (above the root).
//
// Every intermediate context is kept in document order and free of
// duplicates, so no step needs a seen-set and the result needs no final
// sort. Children of distinct nodes are distinct, and the descendant
// ranges of nodes in disjoint subtrees are disjoint, so a step from such
// a context emits in order as it goes. Only a descendant step can
// produce a context holding a node together with one of its ancestors
// (nested); from a nested context a descendant step skips the part of
// each range an enclosing context already emitted (a forward merge), and
// a child step — whose outputs stay distinct but interleave — is put
// back in order afterwards.
func evalSteps(doc *xmltree.Document, ctx []xmltree.NodeID, fromDoc bool, steps []Step) []xmltree.NodeID {
	nested := false // ctx may hold a node and one of its ancestors
	for si, st := range steps {
		var next []xmltree.NodeID
		if si == 0 && fromDoc {
			root := doc.Root()
			if root == nil {
				return nil
			}
			switch st.Axis {
			case Child:
				if matchNode(doc, root.ID, st) {
					next = append(next, root.ID)
				}
			case Descendant:
				// Descendants of the document node: every node.
				for i := 0; i < doc.Len(); i++ {
					if matchNode(doc, xmltree.NodeID(i), st) {
						next = append(next, xmltree.NodeID(i))
					}
				}
				nested = true
			}
		} else {
			switch st.Axis {
			case Child:
				for _, c := range ctx {
					for _, ch := range doc.Node(c).Children {
						if matchNode(doc, ch, st) {
							next = append(next, ch)
						}
					}
				}
				if nested {
					slices.Sort(next)
				}
			case Descendant:
				done := xmltree.NodeID(-1) // largest node ID already scanned
				for _, c := range ctx {
					n := doc.Node(c)
					from := n.ID + 1
					if from <= done {
						from = done + 1
					}
					for i := from; i <= n.EndID; i++ {
						if matchNode(doc, i, st) {
							next = append(next, i)
						}
					}
					if n.EndID > done {
						done = n.EndID
					}
				}
				nested = true
			}
		}
		// Apply predicates.
		if len(st.Preds) > 0 {
			filtered := next[:0]
			for _, id := range next {
				ok := true
				for _, pr := range st.Preds {
					if !evalPred(doc, id, pr) {
						ok = false
						break
					}
				}
				if ok {
					filtered = append(filtered, id)
				}
			}
			next = filtered
		}
		ctx = next
		if len(ctx) == 0 {
			return nil
		}
	}
	return ctx
}

func matchNode(doc *xmltree.Document, id xmltree.NodeID, st Step) bool {
	n := doc.Node(id)
	switch n.Kind {
	case xmltree.Text:
		return false
	case xmltree.Attribute:
		if !st.IsAttribute() {
			return false
		}
		return st.Test == "@*" || st.Test == "@"+n.Name
	default:
		if st.IsAttribute() {
			return false
		}
		return st.Test == "*" || st.Test == n.Name
	}
}

func evalPred(doc *xmltree.Document, ctx xmltree.NodeID, pr Pred) bool {
	targets := EvalFrom(doc, ctx, pr.Rel)
	if pr.Op == OpNone {
		return len(targets) > 0
	}
	for _, t := range targets {
		if CompareNodeValue(doc, t, pr.Op, pr.Lit) {
			return true
		}
	}
	return false
}

// CompareNodeValue applies a typed comparison between a node's value and
// a literal, following the general-comparison rules the optimizer also
// uses when matching indexes: numeric literals force numeric comparison
// (non-numeric node values never match), string literals compare
// codepoint-wise.
func CompareNodeValue(doc *xmltree.Document, id xmltree.NodeID, op CmpOp, lit Value) bool {
	// Extract the subtree text once; the numeric interpretation parses
	// the same string instead of re-walking the subtree.
	s := strings.TrimSpace(doc.TextOf(id))
	if lit.Kind == NumberVal {
		v, ok := xmltree.ParseNumeric(s)
		if !ok {
			return false
		}
		return compareFloat(v, op, lit.Num)
	}
	return compareString(s, op, lit.Str)
}

func compareFloat(a float64, op CmpOp, b float64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}

func compareString(a string, op CmpOp, b string) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}

// MatchesLabelPath reports whether a linear pattern matches a rooted
// label path (labels from root to node, attributes spelled "@name").
// Used by the statistics collector and the index builder.
func MatchesLabelPath(p Path, labels []string) bool {
	return compile(p).matchLabels(labels)
}
