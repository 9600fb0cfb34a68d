package xpath

// Len returns the number of cached programs.
func (c *ProgramCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.progs)
}
