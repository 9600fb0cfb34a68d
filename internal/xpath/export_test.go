package xpath

// Len returns the number of cached programs.
func (c *ProgramCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.progs)
}

// ContainsUncached is the subset construction alone, with neither the
// cache nor cannotContain in front of it.
var ContainsUncached = containsUncached

// IgnoreShapes makes the matcher walk every document, as one without a
// shape: the reference a shared matcher's list scans are checked
// against.
func (m *Matcher) IgnoreShapes() { m.noShapes = true }

// VisitLists returns the number of visit lists the matcher holds.
func (m *Matcher) VisitLists() int {
	n := len(m.lists.preds)
	for _, f := range m.lists.shapes {
		if f&shapeSpine != 0 {
			n++
		}
	}
	return n
}
