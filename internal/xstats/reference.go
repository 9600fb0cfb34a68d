package xstats

import (
	"math"
	"sort"
	"strings"

	"xixa/internal/storage"
	"xixa/internal/xmltree"
)

// CollectReference is the original recursive statistics collector kept
// as an executable specification: it walks every subtree per node
// (re-extracting text for the numeric interpretation) and keys paths by
// rendered strings. The production Collect is a single-pass collector
// over the flat node slice keyed by interned PathIDs; the golden
// equivalence tests assert both produce identical TableStats. Do not
// use this on hot paths.
func CollectReference(t *storage.Table) *TableStats {
	ts := &TableStats{
		Table:   t.Name,
		Version: t.Version(),
		Paths:   make(map[string]*PathStat),
	}
	distinctStr := make(map[string]map[string]struct{})
	distinctNum := make(map[string]map[float64]struct{})
	numSamples := make(map[string][]float64)

	t.Scan(func(doc *xmltree.Document) bool {
		ts.DocCount++
		ts.TotalNodes += int64(doc.Len())
		var labels []string
		var walk func(id xmltree.NodeID)
		walk = func(id xmltree.NodeID) {
			n := doc.Node(id)
			label := n.Name
			if n.Kind == xmltree.Attribute {
				label = "@" + label
			}
			labels = append(labels, label)
			key := "/" + strings.Join(labels, "/")
			ps := ts.Paths[key]
			if ps == nil {
				ps = &PathStat{Labels: append([]string(nil), labels...), PathID: xmltree.NoPath}
				ts.Paths[key] = ps
				distinctStr[key] = make(map[string]struct{})
				distinctNum[key] = make(map[float64]struct{})
			}
			ps.Count++
			val := strings.TrimSpace(doc.TextOf(id))
			ps.ValueBytes += int64(len(val))
			if _, seen := distinctStr[key][val]; !seen {
				distinctStr[key][val] = struct{}{}
				ps.DistinctStrings++
			}
			if f, ok := doc.NumericValue(id); ok {
				if ps.NumericCount == 0 {
					ps.Min, ps.Max = f, f
				} else {
					ps.Min = math.Min(ps.Min, f)
					ps.Max = math.Max(ps.Max, f)
				}
				ps.NumericCount++
				numSamples[key] = append(numSamples[key], f)
				if _, seen := distinctNum[key][f]; !seen {
					distinctNum[key][f] = struct{}{}
					ps.DistinctNums++
				}
			}
			for _, c := range n.Children {
				if doc.Node(c).Kind != xmltree.Text {
					walk(c)
				}
			}
			labels = labels[:len(labels)-1]
		}
		if doc.Root() != nil {
			walk(doc.Root().ID)
		}
		return true
	})

	ts.List = make([]*PathStat, 0, len(ts.Paths))
	for key, ps := range ts.Paths {
		if samples := numSamples[key]; len(samples) > 0 {
			ps.Hist = newHistogram(ps.Min, ps.Max, samples)
		}
		ts.List = append(ts.List, ps)
	}
	sort.Slice(ts.List, func(i, j int) bool { return ts.List[i].Path() < ts.List[j].Path() })
	return ts
}
