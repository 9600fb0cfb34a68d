package xpath

import (
	"fmt"

	"xixa/internal/xmltree"
)

// CheckSteps refuses a linear pattern (predicates aside) longer than a
// pattern automaton holds: its states are the bits of a uint32, one per
// step taken plus the start. Patterns enter through xquery.Parse and
// xindex.Definition.Validate, which both run this check, so no later
// stage (containment, statistics, index upkeep, scan programs) meets a
// longer one.
func CheckSteps(p Path) error {
	if len(p.Steps) > maxSteps {
		return fmt.Errorf("xpath: pattern %s has %d steps; at most %d are supported", p.StripPreds(), len(p.Steps), maxSteps)
	}
	return nil
}

// PathSet is the set of PathIDs of one path dictionary that one linear
// pattern accepts (predicates are stripped): the structural-summary
// matching that index upkeep, pattern statistics and scan programs
// share. It keeps each PathID's NFA state set and threads it from a
// path's parent to the path, so a dictionary of D entries is matched in
// O(D·steps) whatever the depth of its paths, and a grown dictionary
// only costs its new entries. A PathSet is not safe for concurrent use.
type PathSet struct {
	m      machine
	states []stateMask // per PathID matched so far: the states after its labels
}

// NewPathSet returns the empty set of the PathIDs p accepts; Extend
// matches dictionary entries into it. p must pass CheckSteps.
func NewPathSet(p Path) *PathSet {
	return &PathSet{m: compile(p)}
}

// Extend matches the entries of a dictionary snapshot (PathDict.Snapshot:
// parents precede children) past those it has already matched, and
// returns the new PathIDs the pattern accepts, in ascending order.
func (s *PathSet) Extend(snap []xmltree.PathEntry) []xmltree.PathID {
	var added []xmltree.PathID
	for i := len(s.states); i < len(snap); i++ {
		from := s.m.start()
		if snap[i].Parent >= 0 {
			from = s.states[snap[i].Parent]
		}
		st := s.m.stepSymbol(from, snap[i].Label, false)
		s.states = append(s.states, st)
		if s.m.accepting(st) {
			added = append(added, xmltree.PathID(i))
		}
	}
	return added
}

// Has reports whether the pattern accepts pid, one of the PathIDs
// matched so far.
func (s *PathSet) Has(pid xmltree.PathID) bool {
	return uint(pid) < uint(len(s.states)) && s.m.accepting(s.states[pid])
}
