package optimizer

import (
	"math"

	"xixa/internal/xindex"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// MaintenanceCost estimates mc(x, s): the cost of keeping index x up to
// date for one occurrence of statement s (paper §III). It is zero for
// queries. For inserts it counts the entries the new document adds to
// the index (exactly, by evaluating the index pattern on the document);
// for deletes and updates it estimates the affected documents from
// statistics and charges per removed/re-added entry, scaled by the
// index's depth.
func (o *Optimizer) MaintenanceCost(def xindex.Definition, stmt *xquery.Statement) float64 {
	if stmt.Kind == xquery.Query || def.Table != stmt.Table {
		return 0
	}
	ts, err := o.tableStats(stmt.Table)
	if err != nil {
		return 0
	}
	idxStats := ts.ForPattern(def.Pattern, def.Type)
	levels := float64(idxStats.Levels)
	if levels < 1 {
		levels = 1
	}
	switch stmt.Kind {
	case xquery.Insert:
		if stmt.Doc == nil {
			return 0
		}
		added := 0.0
		for _, id := range xpath.Eval(stmt.Doc, def.Pattern) {
			if def.Type == xpath.NumberVal {
				// NaN never becomes an index entry (see xindex.keyFor),
				// so it adds no maintenance work either.
				if v, ok := stmt.Doc.NumericValue(id); !ok || math.IsNaN(v) {
					continue
				}
			}
			added++
		}
		return added * MaintenancePerEntry * levels
	case xquery.Delete:
		docs := o.compile(stmt, ts).matchingDocs
		return docs * ts.EntriesPerDoc(idxStats) * MaintenancePerEntry * levels
	case xquery.Update:
		cs := o.compile(stmt, ts)
		// An update touches the index only if the modified node is
		// covered by the index pattern.
		if !xpath.Contains(def.Pattern, cs.updated) {
			return 0
		}
		// Delete + reinsert of the entry.
		return cs.matchingDocs * 2 * MaintenancePerEntry * levels
	default:
		return 0
	}
}
