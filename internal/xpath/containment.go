package xpath

import (
	"strings"
	"sync"
)

// This file implements pattern containment for linear XPath patterns,
// the decision procedure behind index matching (paper §IV): an index
// with pattern I can answer a query pattern Q iff every node reachable
// by Q is reachable by I, i.e. L(Q) ⊆ L(I) where L(P) is the set of
// rooted label paths matched by P.
//
// A linear pattern over axes {/, //} and tests {name, *, @name, @*} is
// a regular expression over the (unbounded) alphabet of labels. We
// compile patterns to small NFAs whose state i means "the first i steps
// have been consumed"; a step with descendant axis adds a self-loop on
// any symbol. Containment is decided by a joint subset construction
// over a finite alphabet: the concrete labels of both patterns plus two
// fresh symbols standing for "any other element label" and "any other
// attribute label". Attribute symbols may only occur in final position,
// matching the shape of real label paths.

// machine is a compiled linear pattern.
type machine struct {
	steps []Step // predicates stripped
}

const maxSteps = 30 // states fit a uint32 bitmask (steps+1 states)

func compile(p Path) machine {
	lin := p.StripPreds()
	if len(lin.Steps) > maxSteps {
		// Patterns of this length never arise from the generators or the
		// generalization algorithm; truncating would be wrong, so panic.
		panic("xpath: pattern too long to compile: " + p.String())
	}
	return machine{steps: lin.Steps}
}

// stateMask is a set of NFA states (bit i = state i).
type stateMask uint32

func (m machine) start() stateMask { return 1 }

func (m machine) accepting(s stateMask) bool {
	return s&(1<<uint(len(m.steps))) != 0
}

// stepSymbol advances the state set on one label symbol. attr marks
// attribute symbols ("@name" or the fresh attribute symbol).
func (m machine) stepSymbol(s stateMask, label string, fresh bool) stateMask {
	var out stateMask
	for i := 0; i <= len(m.steps); i++ {
		if s&(1<<uint(i)) == 0 {
			continue
		}
		if i == len(m.steps) {
			continue // accepting state has no outgoing transitions
		}
		st := m.steps[i]
		if st.Axis == Descendant {
			out |= 1 << uint(i) // self-loop: skip this label
		}
		if symbolMatches(st, label, fresh) {
			out |= 1 << uint(i+1)
		}
	}
	return out
}

// symbolMatches reports whether a step's name test accepts a symbol.
// fresh symbols represent labels not named in either pattern, so they
// can only be matched by wildcards.
func symbolMatches(st Step, label string, fresh bool) bool {
	attr := strings.HasPrefix(label, "@")
	if st.IsAttribute() != attr {
		return false
	}
	if st.IsWildcard() {
		return true
	}
	if fresh {
		return false
	}
	return st.Test == label
}

// matchLabels runs the machine over a concrete rooted label path.
func (m machine) matchLabels(labels []string) bool {
	s := m.start()
	for _, l := range labels {
		s = m.stepSymbol(s, l, false)
		if s == 0 {
			return false
		}
	}
	return m.accepting(s)
}

// freshElem and freshAttr are the two symbols standing for any label
// not mentioned in either pattern. The '#' prefix cannot occur in a
// parsed name test.
const (
	freshElem = "#elem"
	freshAttr = "@#attr"
)

// alphabetOf collects the concrete symbols of the two patterns plus the
// fresh symbols.
func alphabetOf(a, b machine) []string {
	set := map[string]bool{}
	for _, m := range []machine{a, b} {
		for _, st := range m.steps {
			if !st.IsWildcard() {
				set[st.Test] = true
			}
		}
	}
	out := make([]string, 0, len(set)+2)
	for s := range set {
		out = append(out, s)
	}
	out = append(out, freshElem, freshAttr)
	return out
}

// Contains reports whether pattern super covers pattern sub:
// every rooted label path matched by sub is matched by super.
// Both patterns are taken as linear (predicates are stripped).
func Contains(super, sub Path) bool {
	// The key is built in a stack buffer and looked up through a
	// string(b) map index, which Go compiles without a copy, so a cache
	// hit allocates nothing.
	var buf [128]byte
	key := AppendLinear(buf[:0], super)
	key = append(key, 0)
	key = AppendLinear(key, sub)
	containsCache.mu.RLock()
	v, ok := containsCache.m[string(key)]
	containsCache.mu.RUnlock()
	if ok {
		return v
	}
	res := containsUncached(super, sub)
	containsCache.mu.Lock()
	containsCache.m[string(key)] = res
	containsCache.mu.Unlock()
	return res
}

// containsCache memoizes Contains by the two patterns' linear forms.
var containsCache = struct {
	mu sync.RWMutex
	m  map[string]bool
}{m: make(map[string]bool)}

// AppendLinear appends p's linear form to b: the same bytes as
// p.StripPreds().String(), without building the copy or the string.
func AppendLinear(b []byte, p Path) []byte {
	if len(p.Steps) == 0 {
		if p.Relative {
			return append(b, '.')
		}
		return append(b, '/')
	}
	for i, s := range p.Steps {
		switch {
		case i == 0 && p.Relative:
			// A leading child axis is implicit for relative paths.
			if s.Axis == Descendant {
				b = append(b, ".//"...)
			}
		case s.Axis == Descendant:
			b = append(b, "//"...)
		default:
			b = append(b, '/')
		}
		b = append(b, s.Test...)
	}
	return b
}

func containsUncached(super, sub Path) bool {
	mi := compile(super) // the candidate superset (index pattern)
	mq := compile(sub)   // the candidate subset (query pattern)
	alpha := alphabetOf(mi, mq)

	type pair struct{ q, i stateMask }
	start := pair{mq.start(), mi.start()}
	if mq.accepting(start.q) && !mi.accepting(start.i) {
		return false
	}
	seen := map[pair]bool{start: true}
	work := []pair{start}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		for _, sym := range alpha {
			fresh := sym == freshElem || sym == freshAttr
			attr := strings.HasPrefix(sym, "@")
			nq := mq.stepSymbol(cur.q, sym, fresh)
			if nq == 0 {
				continue // sub cannot extend along this symbol
			}
			ni := mi.stepSymbol(cur.i, sym, fresh)
			if mq.accepting(nq) && !mi.accepting(ni) {
				return false
			}
			if attr {
				// Attributes terminate label paths; do not explore further.
				continue
			}
			np := pair{nq, ni}
			if !seen[np] {
				seen[np] = true
				work = append(work, np)
			}
		}
	}
	return true
}

// Equivalent reports whether two linear patterns match exactly the same
// label paths.
func Equivalent(a, b Path) bool {
	return Contains(a, b) && Contains(b, a)
}

// AppendMiddleWildcardsRewritten appends steps to dst after the
// paper's Rule 0 (Table II): every occurrence of one or more contiguous
// wildcard steps in the middle of an expression is replaced by a
// descendant axis on the following step. For example /a/*/b and
// /a/*/*/b both become /a//b. The result is a generalization of the
// input (it matches at least the same paths).
func AppendMiddleWildcardsRewritten(dst, steps []Step) []Step {
	pendingDesc := false
	for i, st := range steps {
		last := i == len(steps)-1
		if !last && st.Test == "*" && len(st.Preds) == 0 {
			// Middle wildcard: fold into a descendant axis on the next
			// emitted step.
			pendingDesc = true
			continue
		}
		if pendingDesc {
			st.Axis = Descendant
			pendingDesc = false
		}
		dst = append(dst, st)
	}
	return dst
}
