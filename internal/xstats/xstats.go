// Package xstats implements the statistics substrate (the RUNSTATS
// analog of the paper's §III): a path synopsis per table recording, for
// every distinct rooted label path in the data, the node count, distinct
// values, value bytes, and numeric value distribution.
//
// The optimizer's cost model estimates selectivities from these
// statistics, and the advisor derives virtual-index statistics (size,
// levels, entries) from them — exactly the role RUNSTATS output plays
// for DB2's virtual indexes in the paper.
//
// Collection is a single linear pass over each document's flat node
// slice: element text is accumulated once from the contiguous
// (ID, EndID] subtree ranges, the numeric interpretation parses that
// same string, and per-path accumulators are indexed densely by the
// table dictionary's PathIDs — no per-node subtree walks, path string
// joins, or string-keyed map lookups.
package xstats

import (
	"math"
	"strings"

	"xixa/internal/btree"
	"xixa/internal/storage"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

// PathStat aggregates the nodes sharing one rooted label path.
type PathStat struct {
	// Labels is the rooted label path, e.g. ["Security","SecInfo","Sector"].
	// Attribute labels are spelled "@name".
	Labels []string
	// PathID is the path's ID in the table dictionary the stats were
	// collected against (NoPath when collected without a dictionary).
	PathID xmltree.PathID
	// Count is the number of nodes with this label path.
	Count int64
	// DistinctStrings is the number of distinct string values.
	DistinctStrings int64
	// ValueBytes is the total size of all (string) values.
	ValueBytes int64
	// NumericCount is how many values parse as numbers.
	NumericCount int64
	// DistinctNums is the number of distinct numeric values.
	DistinctNums int64
	// Min and Max bound the numeric values (valid when NumericCount > 0).
	Min, Max float64
	// Hist is the equi-width histogram of numeric values (nil when the
	// path has none).
	Hist *Histogram
}

// Path returns the rendered label path, e.g. "/Security/SecInfo/Sector".
func (p *PathStat) Path() string {
	return "/" + strings.Join(p.Labels, "/")
}

// TableStats is the collected synopsis of one table.
type TableStats struct {
	Table      string
	Version    int64 // table version at collection time
	DocCount   int64
	TotalNodes int64
	// Paths maps rendered label paths to their statistics.
	Paths map[string]*PathStat
	// List holds the same PathStats sorted by path for deterministic
	// iteration.
	List []*PathStat

	// dict is the table dictionary the stats were collected against
	// (nil for the reference collector). byID indexes List's entries by
	// PathID for O(1) per-path lookup.
	dict *xmltree.PathDict
	byID []*PathStat

	// acc is the retained mergeable accumulator store (see delta.go):
	// exact value multisets that ApplyDelta folds change deltas into, so
	// statistics track a live insert/delete stream without re-scanning
	// the table. Nil for the reference collector, whose stats cannot be
	// incrementally maintained.
	acc *Delta
	// rederived is how many paths the fold that built this snapshot
	// re-derived from their full multisets (see ApplyDelta).
	rederived int

	// patterns memoizes ForPattern for every snapshot over the store
	// and seq places this snapshot in it (see patternTable). Nil for
	// the reference collector, which has no dictionary to match over.
	patterns *patternTable
	seq      uint64
}

// ByPathID returns the statistics of one interned path, or nil.
func (ts *TableStats) ByPathID(id xmltree.PathID) *PathStat {
	if id < 0 || int(id) >= len(ts.byID) {
		return nil
	}
	return ts.byID[id]
}

// Collect scans every document of the table and builds its synopsis in
// one linear pass per document. This is the system's RUNSTATS. The
// result retains its mergeable accumulator store, so it can be kept
// current under updates with ApplyDelta instead of re-collecting.
func Collect(t *storage.Table) *TableStats {
	version := t.Version()
	d := NewDelta(t.PathDict())
	t.Scan(func(doc *xmltree.Document) bool {
		d.CollectDoc(doc)
		return true
	})
	return FromDelta(t.Name, version, d)
}

// AvgNodesPerDoc returns the mean document size in nodes.
func (ts *TableStats) AvgNodesPerDoc() float64 {
	if ts.DocCount == 0 {
		return 0
	}
	return float64(ts.TotalNodes) / float64(ts.DocCount)
}

// PatternStats is the derived statistics of a (possibly virtual) index
// on a linear pattern — what the paper derives from RUNSTATS data for
// its virtual indexes: size, number of levels, entry counts, and the
// value distribution inputs of the cost model.
type PatternStats struct {
	// Entries is the number of index entries (nodes matched by the
	// pattern; for numeric indexes only numeric-valued nodes count).
	Entries int64
	// KeyBytes is the total encoded key size.
	KeyBytes int64
	// Distinct is the number of distinct keys (approximated by summing
	// per-path distinct counts; an upper bound).
	Distinct int64
	// Min and Max bound numeric keys (numeric indexes only).
	Min, Max float64
	// Hist is the merged numeric-value histogram (nil for string
	// patterns or when no numeric values matched).
	Hist *Histogram
	// SizeBytes is the estimated on-disk size of the index.
	SizeBytes int64
	// Levels is the estimated number of B+-tree levels.
	Levels int
}

// EntriesPerDoc returns the mean number of index entries per document.
func (ts *TableStats) EntriesPerDoc(p PatternStats) float64 {
	if ts.DocCount == 0 {
		return 0
	}
	return float64(p.Entries) / float64(ts.DocCount)
}

// numericKeyBytes is the encoded size of a double key (tag + 8 bytes),
// mirroring xindex's key encoding.
const numericKeyBytes = 9

// patternSum accumulates PatternStats over the PathStats a pattern
// matches, which must be added in List order: merging histograms is not
// commutative.
type patternSum struct {
	kind   xpath.ValueKind
	out    PatternStats
	ranged bool // out.Min/Max hold a numeric path's range already
}

func (s *patternSum) add(st *PathStat) {
	out := &s.out
	if s.kind == xpath.NumberVal {
		out.Entries += st.NumericCount
		out.KeyBytes += st.NumericCount * numericKeyBytes
		out.Distinct += st.DistinctNums
		if st.NumericCount > 0 {
			if !s.ranged {
				out.Min, out.Max = st.Min, st.Max
				s.ranged = true
			} else {
				out.Min = math.Min(out.Min, st.Min)
				out.Max = math.Max(out.Max, st.Max)
			}
			out.Hist = out.Hist.merge(st.Hist)
		}
		return
	}
	out.Entries += st.Count
	// +1 per key for the type tag byte used by the key encoding.
	out.KeyBytes += st.ValueBytes + st.Count
	out.Distinct += st.DistinctStrings
}

func (s *patternSum) stats() PatternStats {
	s.out.SizeBytes = btree.EstimateSizeBytes(int(s.out.Entries), s.out.KeyBytes, 0)
	s.out.Levels = btree.EstimateLevels(int(s.out.Entries), 0)
	return s.out
}

// ForPattern aggregates the synopsis over all label paths matched by the
// linear pattern, producing the statistics a virtual index on that
// pattern would have. Results are memoized per (pattern, kind) in the
// store's pattern table, so they outlive this snapshot: after a fold,
// only patterns matching a path the fold changed are derived again, and
// those from their remembered PathIDs, without re-running the pattern
// NFA.
func (ts *TableStats) ForPattern(p xpath.Path, kind xpath.ValueKind) PatternStats {
	sum := patternSum{kind: kind}
	if ts.patterns == nil {
		// The reference collector: no dictionary, so each path's label
		// slice is matched directly and nothing is remembered.
		for _, st := range ts.List {
			if xpath.MatchesLabelPath(p, st.Labels) {
				sum.add(st)
			}
		}
		return sum.stats()
	}
	var kb [128]byte
	stats, e, pids := ts.patterns.lookup(xpath.AppendLinear(kb[:0], p), p, kind, ts.seq)
	if e == nil {
		return stats
	}
	for _, pid := range pids {
		if st := ts.ByPathID(pid); st != nil {
			sum.add(st)
		}
	}
	stats = sum.stats()
	ts.patterns.remember(e, kind, ts.seq, stats)
	return stats
}

// Selectivity estimates the fraction of index entries satisfying a
// comparison against a literal, using a uniformity assumption over the
// distinct values (equality) or the numeric range (inequalities) — the
// standard System-R style estimators the DB2 cost model also applies.
func (p PatternStats) Selectivity(op xpath.CmpOp, lit xpath.Value) float64 {
	if p.Entries == 0 {
		return 0
	}
	distinct := float64(p.Distinct)
	if distinct < 1 {
		distinct = 1
	}
	eq := 1 / distinct
	switch op {
	case xpath.OpEq:
		return eq
	case xpath.OpNe:
		return clamp01(1 - eq)
	}
	// Range operators: use the histogram when available, falling back
	// to a min/max uniformity assumption.
	if lit.Kind == xpath.NumberVal {
		if p.Hist != nil && p.Hist.Total > 0 {
			switch op {
			case xpath.OpLt:
				return clamp01(p.Hist.FractionBelow(lit.Num, false))
			case xpath.OpLe:
				return clamp01(p.Hist.FractionBelow(lit.Num, true))
			case xpath.OpGt:
				return clamp01(1 - p.Hist.FractionBelow(lit.Num, true))
			case xpath.OpGe:
				return clamp01(1 - p.Hist.FractionBelow(lit.Num, false))
			}
		}
		span := p.Max - p.Min
		if span <= 0 {
			// Degenerate distribution: everything equal; a range either
			// takes all or nothing, assume half as a neutral default.
			return 0.5
		}
		var frac float64
		switch op {
		case xpath.OpLt, xpath.OpLe:
			frac = (lit.Num - p.Min) / span
		case xpath.OpGt, xpath.OpGe:
			frac = (p.Max - lit.Num) / span
		}
		return clamp01(frac)
	}
	// String ranges: no order statistics kept; use the classic 1/3.
	return 1.0 / 3.0
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
