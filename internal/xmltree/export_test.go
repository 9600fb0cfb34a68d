package xmltree

// CachedValue returns node id's entry in the document's value column;
// ok is false when the column holds none for it.
func CachedValue(d *Document, id NodeID) (s string, v float64, numeric, ok bool) {
	if int(id) >= len(d.vals) || d.vals[id].texts == 2 {
		return "", 0, false, false
	}
	lv := &d.vals[id]
	return lv.str, lv.num, lv.numeric, true
}
