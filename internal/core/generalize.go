package core

import (
	"bytes"
	"slices"

	"xixa/internal/xpath"
)

// This file implements the paper's candidate generalization algorithm
// (§V): Algorithm 1 (generalizeStep) and the advanceStep rules of
// Table II, including the Rule 0 rewrite and the node-reoccurrence
// handling of Rule 4.
//
// GeneralizePair(/Security/Symbol, /Security/SecInfo/*/Sector) yields
// /Security//*  — candidate C4 of the paper's Table I.
// GeneralizePair(/a/b/d, /a/d/b/d) yields /a//d and /a//b/d — the
// paper's Rule 4 example.

// genAxis returns descendant if at least one input is descendant,
// child otherwise (paper §V).
func genAxis(a, b xpath.Axis) xpath.Axis {
	if a == xpath.Descendant || b == xpath.Descendant {
		return xpath.Descendant
	}
	return xpath.Child
}

// wildcardFor returns the wildcard test matching the kind of a name
// test ("*" for elements, "@*" for attributes).
func wildcardFor(test string) string {
	if len(test) > 0 && test[0] == '@' {
		return "@*"
	}
	return "*"
}

// compatibleTests reports whether two name tests can be generalized
// together: attributes only generalize with attributes (an index on
// elements cannot cover attribute nodes and vice versa).
func compatibleTests(a, b string) bool {
	aAttr := len(a) > 0 && a[0] == '@'
	bAttr := len(b) > 0 && b[0] == '@'
	return aAttr == bAttr
}

// GeneralizePair runs the pair generalization of §V on two linear
// absolute patterns and returns the distinct generalized patterns
// (after the Rule 0 rewrite), ordered by their XPath spelling. The
// result may be empty when the last steps are incompatible (element vs
// attribute targets).
func GeneralizePair(a, b xpath.Path) []xpath.Path {
	var g pairGen
	return g.pair(a, b)
}

// pairGen runs pair generalizations. The recursion appends into one
// shared step buffer: a branch writes at its own depth and emit copies
// the steps out, so sibling branches may overwrite what an earlier
// branch left there. out is kept sorted by spelling; spans[i] locates
// out[i]'s spelling in keys, so each pattern is rendered once.
type pairGen struct {
	gen   []xpath.Step
	steps []xpath.Step // the steps of out's patterns
	out   []xpath.Path
	spans [][2]int
	keys  []byte
}

// pair returns GeneralizePair(a, b). It reuses g's buffers, so the
// result is valid until the next call: a caller that keeps a pattern
// clones its steps.
func (g *pairGen) pair(a, b xpath.Path) []xpath.Path {
	g.steps, g.out, g.spans, g.keys = g.steps[:0], g.out[:0], g.spans[:0], g.keys[:0]
	pa, pb := linear(a), linear(b)
	if pa.Relative || pb.Relative || len(pa.Steps) == 0 || len(pb.Steps) == 0 {
		return nil
	}
	// Every appended step consumes a step of pa or pb, so the recursion
	// never outgrows this buffer.
	g.gen = slices.Grow(g.gen[:0], len(pa.Steps)+len(pb.Steps))
	g.generalizeStep(g.gen, pa.Steps, pb.Steps)
	return g.out
}

// linear returns p itself when it carries no predicates and its
// stripped copy otherwise.
func linear(p xpath.Path) xpath.Path {
	if p.IsLinear() {
		return p
	}
	return p.StripPreds()
}

// emit records gen's Rule 0 rewrite unless an equal pattern is already
// recorded.
func (g *pairGen) emit(gen []xpath.Step) {
	from, kfrom := len(g.steps), len(g.keys)
	g.steps = xpath.AppendMiddleWildcardsRewritten(g.steps, gen)
	steps := g.steps[from:len(g.steps):len(g.steps)]
	g.keys = xpath.AppendLinear(g.keys, xpath.Path{Steps: steps})
	key := g.keys[kfrom:]
	i, found := slices.BinarySearchFunc(g.spans, key, func(sp [2]int, key []byte) int {
		return bytes.Compare(g.keys[sp[0]:sp[1]], key)
	})
	if found {
		g.steps, g.keys = g.steps[:from], g.keys[:kfrom]
		return
	}
	g.out = slices.Insert(g.out, i, xpath.Path{Steps: steps})
	g.spans = slices.Insert(g.spans, i, [2]int{kfrom, len(g.keys)})
}

// generalizeStep is Algorithm 1: generalize the heads of pi and pj into
// a new node appended to gen, then advance per Table II. pi and pj are
// the remaining steps of each expression (the "pointers" of the paper).
func (g *pairGen) generalizeStep(gen []xpath.Step, pi, pj []xpath.Step) {
	isLastI := len(pi) == 1
	isLastJ := len(pj) == 1
	if isLastI != isLastJ {
		// Lines 1-3: a last step can only generalize with another last
		// step; let advanceStep align the pointers first.
		g.advanceStep(gen, pi, pj)
		return
	}
	head := xpath.Step{Axis: genAxis(pi[0].Axis, pj[0].Axis)}
	if !compatibleTests(pi[0].Test, pj[0].Test) {
		if isLastI && isLastJ {
			// Incompatible targets (element vs attribute): no
			// generalized index can cover both.
			return
		}
		head.Test = "*" // middle steps: element wildcard placeholder
	} else if pi[0].Test == pj[0].Test {
		head.Test = pi[0].Test
	} else {
		head.Test = wildcardFor(pi[0].Test)
	}
	g.advanceStep(append(gen, head), pi, pj)
}

// advanceStep implements Table II.
func (g *pairGen) advanceStep(gen []xpath.Step, pi, pj []xpath.Step) {
	isLastI := len(pi) == 1
	isLastJ := len(pj) == 1
	skipped := xpath.Step{Axis: xpath.Child, Test: "*"}
	switch {
	case isLastI && isLastJ:
		// Rule 1: both expressions fully consumed (their generalized
		// last node has been appended by the caller).
		g.emit(gen)
	case isLastI && !isLastJ:
		// Rule 2: skip pj's middle steps down to its last step,
		// recording the skipped run as a /* placeholder.
		g.generalizeStep(append(gen, skipped), pi, pj[len(pj)-1:])
	case !isLastI && isLastJ:
		// Rule 3: symmetric to Rule 2.
		g.generalizeStep(append(gen, skipped), pi[len(pi)-1:], pj)
	default:
		// Rule 4: both in the middle. Three alternatives: advance both,
		// or search for the reoccurrence of one expression's next node
		// in the other and align there.
		g.generalizeStep(gen, pi[1:], pj[1:])
		// Occurrence of pj's next node within pi's remainder.
		if k := findStep(pi[1:], pj[1].Test); k > 0 {
			g.generalizeStep(append(gen, skipped), pi[1+k:], pj[1:])
		}
		// Occurrence of pi's next node within pj's remainder.
		if k := findStep(pj[1:], pi[1].Test); k > 0 {
			g.generalizeStep(append(gen, skipped), pi[1:], pj[1+k:])
		}
	}
}

// findStep returns the index of the first step in steps whose name test
// equals test, or -1. Index 0 means no steps would be skipped, which
// advanceStep treats as already covered by the advance-both branch.
func findStep(steps []xpath.Step, test string) int {
	for i, s := range steps {
		if s.Test == test {
			return i
		}
	}
	return -1
}
