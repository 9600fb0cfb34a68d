package optimizer

// SiteEvalEntries counts the probe-memo entries, one per definition,
// held by every compiled statement of the optimizer.
func (o *Optimizer) SiteEvalEntries() int {
	n := 0
	o.compiled.Range(func(_, v any) bool {
		cs := v.(*CompiledStatement)
		cs.mu.RLock()
		n += len(cs.siteEvals)
		cs.mu.RUnlock()
		return true
	})
	return n
}
