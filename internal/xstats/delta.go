package xstats

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"

	"xixa/internal/xmltree"
)

// valueAcc is the mergeable accumulator of one rooted label path: exact
// multisets of the path's string and numeric values plus running
// scalars. Unlike the derived PathStat — which only keeps distinct
// counts and a histogram — the multiset form supports subtraction, so
// deletions maintain statistics exactly: removing a document's
// contribution leaves precisely the accumulator a fresh collection of
// the remaining documents would build.
type valueAcc struct {
	count int64 // node occurrences on this path
	bytes int64 // total string-value bytes
	// strs is the string-value multiset. Values are pointers so the hot
	// increment path (map lookup by []byte-backed key) never allocates;
	// a key string is only materialized the first time a distinct value
	// is seen.
	strs map[string]*int64
	nums map[float64]int64 // numeric-value multiset, NaN excluded
	// nan counts NaN-valued numeric occurrences separately: NaN cannot
	// key a map (NaN != NaN), and the streaming collector counts every
	// NaN occurrence as a fresh distinct value, which this reproduces.
	nan int64

	// The derived summary: what a PathStat needs beyond the scalars and
	// len(strs)/len(nums). Only accumulators of a retained store carry
	// one: summarize establishes it and foldInto keeps it current while
	// summarized is set. A fold that moves the numeric range clears the
	// flag, because the equi-width buckets have to be re-cut then.
	summarized bool
	numeric    int64   // numeric occurrences, NaN included
	min, max   float64 // the histogram's range; NaN while nan > 0
	buckets    [histogramBuckets]int64
}

// foldInto adds src's contribution (possibly negative) into dst and
// reports whether it changed anything: a replace that rewrites one leaf
// nets to zero on every other path of the document.
//
// A summarized dst has its summary updated in place, in O(values in
// src). The numeric range moves — and dst stops being summarized — when
// a value lands outside [min, max], the last holder of min or max goes,
// the path gains its first numeric value, or NaN appears or disappears
// (NaN pins the range at NaN; comparisons against it are all false, so
// while it stays nothing else can move the range).
func (src *valueAcc) foldInto(dst *valueAcc) (changed bool) {
	changed = src.count != 0 || src.bytes != 0 || src.nan != 0
	dst.count += src.count
	dst.bytes += src.bytes
	for s, p := range src.strs {
		if *p == 0 {
			continue
		}
		changed = true
		dp := dst.strs[s]
		if dp == nil {
			dp = new(int64)
			dst.strs[s] = dp
		}
		*dp += *p
		if *dp == 0 {
			delete(dst.strs, s)
		}
	}
	if (dst.nan > 0) != (dst.nan+src.nan > 0) {
		dst.summarized = false
	}
	for v, c := range src.nums {
		if c == 0 {
			continue
		}
		changed = true
		n := dst.nums[v] + c
		if n == 0 {
			delete(dst.nums, v)
		} else {
			dst.nums[v] = n
		}
		if !dst.summarized {
			continue
		}
		if dst.numeric == 0 || v < dst.min || v > dst.max || (n == 0 && (v == dst.min || v == dst.max)) {
			dst.summarized = false
			continue
		}
		dst.buckets[bucketIndex(dst.min, dst.max, v)] += c
		dst.numeric += c
	}
	if dst.summarized && src.nan != 0 {
		dst.buckets[bucketIndex(dst.min, dst.max, math.NaN())] += src.nan
		dst.numeric += src.nan
	}
	dst.nan += src.nan
	return changed
}

// Delta is a PathID-indexed accumulation of document insertions and
// removals against one table dictionary — the unit of incremental
// statistics maintenance. A Delta doubles as the retained mergeable
// store inside a TableStats built by Collect/FromDelta, which is what
// makes ApplyDelta exact: folding a delta into the store yields the
// same accumulators a fresh collection would.
type Delta struct {
	dict    *xmltree.PathDict
	docs    int64
	nodes   int64
	accs    []*valueAcc // dense by PathID; nil = untouched
	touched []xmltree.PathID
	free    []*valueAcc // cleared accumulators Reset kept for ensure

	// Per-document scratch, reused across documents (see Collect).
	textAt  []xmltree.NodeID
	textCnt []int32
	textBuf []byte
}

// NewDelta creates an empty delta over a table's path dictionary.
func NewDelta(dict *xmltree.PathDict) *Delta {
	return &Delta{dict: dict}
}

// Docs returns the delta's net document count.
func (d *Delta) Docs() int64 { return d.docs }

// Empty reports whether the delta carries no changes.
func (d *Delta) Empty() bool {
	return d.docs == 0 && d.nodes == 0 && len(d.touched) == 0
}

// recycleMaxValues bounds the accumulators Reset keeps: clearing a map
// costs its capacity, not its length, so one that a bulk load grew is
// dropped rather than cleared on every later statement.
const recycleMaxValues = 16

// Reset clears the delta for reuse, keeping its scratch buffers and the
// touched accumulators (cleared), so a steady stream of small deltas
// folds without allocating an accumulator and two maps per path.
func (d *Delta) Reset() {
	d.docs, d.nodes = 0, 0
	for _, pid := range d.touched {
		acc := d.accs[pid]
		d.accs[pid] = nil
		if len(acc.strs) > recycleMaxValues || len(acc.nums) > recycleMaxValues {
			continue
		}
		clear(acc.strs)
		clear(acc.nums)
		*acc = valueAcc{strs: acc.strs, nums: acc.nums}
		d.free = append(d.free, acc)
	}
	d.touched = d.touched[:0]
}

// CollectDoc adds one document's statistics contribution.
func (d *Delta) CollectDoc(doc *xmltree.Document) { d.addDoc(doc, 1) }

// RemoveDoc subtracts one document's statistics contribution. The
// document must be in the state it was collected in (call before
// mutating or after fetching the pre-image).
func (d *Delta) RemoveDoc(doc *xmltree.Document) { d.addDoc(doc, -1) }

// Merge folds another delta over the same dictionary into this one.
func (d *Delta) Merge(other *Delta) error {
	if other.dict != d.dict {
		return fmt.Errorf("xstats: cannot merge deltas over different dictionaries")
	}
	d.docs += other.docs
	d.nodes += other.nodes
	for _, pid := range other.touched {
		other.accs[pid].foldInto(d.ensure(pid))
	}
	return nil
}

// Clone returns a deep copy of the delta: same dictionary, independent
// accumulators. Folding into either copy leaves the other untouched,
// which is what lets a shard hand its retained store across a merge
// boundary while its keeper keeps mutating the original.
func (d *Delta) Clone() *Delta {
	out := &Delta{dict: d.dict, docs: d.docs, nodes: d.nodes}
	out.accs = make([]*valueAcc, len(d.accs))
	out.touched = make([]xmltree.PathID, len(d.touched))
	copy(out.touched, d.touched)
	for _, pid := range d.touched {
		src := d.accs[pid]
		dst := new(valueAcc)
		*dst = *src
		dst.strs = make(map[string]*int64, len(src.strs))
		dst.nums = make(map[float64]int64, len(src.nums))
		for s, p := range src.strs {
			v := *p
			dst.strs[s] = &v
		}
		for v, c := range src.nums {
			dst.nums[v] = c
		}
		out.accs[pid] = dst
	}
	return out
}

// Rebase translates the delta onto another path dictionary, re-interning
// each touched path's root-to-node label chain. Two tables holding
// disjoint shards of the same logical table intern paths in arrival
// order, so the same rooted path can carry different PathIDs on
// different shards; rebasing is what makes their statistics combinable.
// The receiver is left untouched; the result is always an independent
// copy (rebasing onto the delta's own dictionary degenerates to Clone).
func (d *Delta) Rebase(dict *xmltree.PathDict) *Delta {
	if dict == d.dict {
		return d.Clone()
	}
	out := NewDelta(dict)
	out.docs, out.nodes = d.docs, d.nodes
	for _, pid := range d.touched {
		np := xmltree.NoPath
		for _, label := range d.dict.Labels(pid) {
			np = dict.Intern(np, label)
		}
		d.accs[pid].foldInto(out.ensure(np))
	}
	return out
}

// ensure returns the accumulator of a path, creating and registering it
// on first touch.
func (d *Delta) ensure(pid xmltree.PathID) *valueAcc {
	if int(pid) >= len(d.accs) {
		n := d.dict.Len()
		if n <= int(pid) {
			n = int(pid) + 1
		}
		grown := make([]*valueAcc, n)
		copy(grown, d.accs)
		d.accs = grown
	}
	acc := d.accs[pid]
	if acc == nil {
		if n := len(d.free); n > 0 {
			acc, d.free = d.free[n-1], d.free[:n-1]
		} else {
			acc = &valueAcc{strs: make(map[string]*int64), nums: make(map[float64]int64)}
		}
		d.accs[pid] = acc
		d.touched = append(d.touched, pid)
	}
	return acc
}

// parseNumericBytes is xmltree.ParseNumeric over a trimmed byte view;
// the string is only materialized for plausible numeric candidates
// (xmltree.NumericLead rejects the common non-numeric case first).
func parseNumericBytes(b []byte) (float64, bool) {
	if len(b) == 0 || !xmltree.NumericLead(b[0]) {
		return 0, false
	}
	return xmltree.ParseNumeric(string(b))
}

// addDoc runs the single-pass collection over one document with the
// given sign (+1 insert, -1 remove): element text is accumulated once
// from the contiguous (ID, EndID] subtree ranges, the numeric
// interpretation parses that same string, and per-path accumulators are
// indexed densely by the dictionary's PathIDs.
func (d *Delta) addDoc(doc *xmltree.Document, sign int64) {
	d.docs += sign
	d.nodes += sign * int64(doc.Len())
	if doc.Dict != d.dict || len(doc.PathIDs) != doc.Len() {
		// Defensive: Table.Insert interns on the way in, so this is
		// only reachable for documents placed by unusual means.
		doc.InternPaths(d.dict)
	}
	n := doc.Len()

	// textAt lists the IDs of text nodes in document order, textCnt[i]
	// counts text nodes with ID < i, so the text nodes inside a subtree
	// (id, end] are textAt[textCnt[id+1]:textCnt[end+1]] — element text
	// accumulates from these contiguous ranges without walking the
	// subtree. textBuf holds multi-text-node concatenations so interior
	// elements do not allocate a string per node.
	d.textAt = d.textAt[:0]
	if cap(d.textCnt) < n+1 {
		d.textCnt = make([]int32, n+1)
	} else {
		d.textCnt = d.textCnt[:n+1]
	}
	for i := 0; i < n; i++ {
		d.textCnt[i] = int32(len(d.textAt))
		if doc.Nodes[i].Kind == xmltree.Text {
			d.textAt = append(d.textAt, xmltree.NodeID(i))
		}
	}
	d.textCnt[n] = int32(len(d.textAt))

	for i := 0; i < n; i++ {
		node := &doc.Nodes[i]
		if node.Kind == xmltree.Text {
			continue
		}
		acc := d.ensure(doc.PathIDs[i])
		acc.count += sign

		// Value extraction is allocation-free: attribute and
		// single-text values are trimmed views of existing strings, and
		// multi-text (interior element) concatenations land in the
		// reused byte buffer — a new string is only materialized the
		// first time a distinct concatenated value is seen.
		var val string
		var valb []byte
		concat := false
		if node.Kind == xmltree.Attribute {
			val = strings.TrimSpace(node.Value)
		} else {
			span := d.textAt[d.textCnt[node.ID+1]:d.textCnt[node.EndID+1]]
			switch len(span) {
			case 0:
			case 1:
				val = strings.TrimSpace(doc.Nodes[span[0]].Value)
			default:
				d.textBuf = d.textBuf[:0]
				for _, tid := range span {
					d.textBuf = append(d.textBuf, doc.Nodes[tid].Value...)
				}
				valb = bytes.TrimSpace(d.textBuf)
				concat = true
			}
		}

		var f float64
		var ok bool
		if concat {
			acc.bytes += sign * int64(len(valb))
			p := acc.strs[string(valb)] // no-alloc lookup
			if p == nil {
				p = new(int64)
				acc.strs[string(valb)] = p
			}
			*p += sign
			f, ok = parseNumericBytes(valb)
		} else {
			acc.bytes += sign * int64(len(val))
			p := acc.strs[val]
			if p == nil {
				p = new(int64)
				acc.strs[val] = p
			}
			*p += sign
			f, ok = xmltree.ParseNumeric(val)
		}
		if ok {
			if math.IsNaN(f) {
				acc.nan += sign
			} else {
				acc.nums[f] += sign
			}
		}
	}
}

// summarize derives the accumulator's summary from its full multisets,
// pruning values whose occurrences cancelled to zero: O(distinct values
// on the path). The derivation is order-independent, so it is
// bit-compatible with the streaming collector: min/max folds, distinct
// counts, and equi-width histogram buckets do not depend on the order
// values were seen in.
func (acc *valueAcc) summarize() {
	for s, p := range acc.strs {
		if *p == 0 {
			delete(acc.strs, s)
		}
	}
	acc.numeric = acc.nan
	acc.min, acc.max = 0, 0
	first := true
	for v, c := range acc.nums {
		if c == 0 {
			delete(acc.nums, v)
			continue
		}
		acc.numeric += c
		if first {
			acc.min, acc.max = v, v
			first = false
		} else {
			acc.min = math.Min(acc.min, v)
			acc.max = math.Max(acc.max, v)
		}
	}
	if acc.nan > 0 {
		// math.Min/Max propagate NaN, so any NaN occurrence makes the
		// streaming fold NaN regardless of order.
		acc.min, acc.max = math.NaN(), math.NaN()
	}
	acc.buckets = [histogramBuckets]int64{}
	for v, c := range acc.nums {
		acc.buckets[bucketIndex(acc.min, acc.max, v)] += c
	}
	if acc.nan > 0 {
		acc.buckets[bucketIndex(acc.min, acc.max, math.NaN())] += acc.nan
	}
	acc.summarized = true
}

// pathStat renders a summarized accumulator as a fresh immutable
// PathStat — O(1), the histogram's 16 buckets included — or nil when
// the path no longer has any nodes.
func (acc *valueAcc) pathStat(labels []string, pid xmltree.PathID) *PathStat {
	if acc.count <= 0 {
		return nil
	}
	ps := &PathStat{
		Labels:          labels,
		PathID:          pid,
		Count:           acc.count,
		ValueBytes:      acc.bytes,
		DistinctStrings: int64(len(acc.strs)),
	}
	if acc.numeric > 0 {
		ps.NumericCount = acc.numeric
		ps.DistinctNums = int64(len(acc.nums)) + acc.nan
		ps.Min, ps.Max = acc.min, acc.max
		ps.Hist = &Histogram{Min: acc.min, Max: acc.max, Total: acc.numeric, Buckets: append([]int64(nil), acc.buckets[:]...)}
	}
	return ps
}

// FromDelta materializes a TableStats snapshot from a delta describing
// an entire table, taking ownership of the delta as the snapshot's
// retained mergeable store (later ApplyDelta calls fold into it).
func FromDelta(table string, version int64, d *Delta) *TableStats {
	ts := &TableStats{
		Table:      table,
		Version:    version,
		DocCount:   d.docs,
		TotalNodes: d.nodes,
		dict:       d.dict,
		acc:        d,
		patterns:   newPatternTable(d.dict),
	}
	ts.byID = make([]*PathStat, len(d.accs))
	for _, pid := range d.touched {
		acc := d.accs[pid]
		acc.summarize()
		ts.byID[pid] = acc.pathStat(d.dict.Labels(pid), pid)
	}
	ts.listPaths()
	return ts
}

// listPaths rebuilds List and Paths from byID: every present path is
// rendered, keyed and sorted, so this is for a new snapshot or a fold
// that made a path appear or vanish.
func (ts *TableStats) listPaths() {
	ts.Paths = make(map[string]*PathStat)
	ts.List = nil
	for _, ps := range ts.byID {
		if ps != nil {
			ts.Paths[ps.Path()] = ps
			ts.List = append(ts.List, ps)
		}
	}
	sort.Slice(ts.List, func(i, j int) bool { return ts.List[i].Path() < ts.List[j].Path() })
}

// ApplyDelta folds a delta of document insertions/removals into the
// statistics' retained accumulator store and returns a fresh snapshot
// at the given table version, bit-identical to a Collect at that
// version. The work is O(values in the delta) plus one pointer per
// path of the table (byID, List and Paths are copied, not re-derived):
// a touched path's summary is updated in place and rendered as a new
// PathStat, a touched path whose changes net to zero keeps its old one,
// and every untouched PathStat is shared with the old snapshot. The
// exception is a fold that moves a path's numeric range (see
// valueAcc.foldInto): that path is re-derived from its full multiset,
// O(distinct values on it), because its histogram buckets must be
// re-cut. A path appearing or vanishing also re-sorts the path list.
//
// The receiver must be the newest snapshot built over its store: older
// snapshots stay valid for concurrent readers but must not apply
// further deltas. The delta is left unchanged; callers may Reset and
// reuse it. Statistics collected without a mergeable store (the
// reference collector) report an error.
func (ts *TableStats) ApplyDelta(d *Delta, version int64) (*TableStats, error) {
	if ts.acc == nil {
		return nil, fmt.Errorf("xstats: statistics for %q were not collected in mergeable form", ts.Table)
	}
	if d.dict != ts.dict {
		return nil, fmt.Errorf("xstats: delta dictionary does not match statistics for %q", ts.Table)
	}
	if d == ts.acc {
		return nil, fmt.Errorf("xstats: cannot apply statistics' own store onto itself")
	}
	store := ts.acc
	store.docs += d.docs
	store.nodes += d.nodes
	for _, pid := range d.touched {
		store.ensure(pid)
	}

	out := &TableStats{
		Table:      ts.Table,
		Version:    version,
		DocCount:   store.docs,
		TotalNodes: store.nodes,
		Paths:      ts.Paths,
		dict:       ts.dict,
		acc:        store,
		patterns:   ts.patterns,
	}
	out.byID = make([]*PathStat, len(store.accs))
	copy(out.byID, ts.byID)
	var changed []xmltree.PathID
	relist := false
	for _, pid := range d.touched {
		acc, prev := store.accs[pid], out.byID[pid]
		if !d.accs[pid].foldInto(acc) {
			continue
		}
		var labels []string
		if prev != nil {
			labels = prev.Labels
		} else {
			labels = ts.dict.Labels(pid)
		}
		if !acc.summarized {
			acc.summarize()
			out.rederived++
		}
		ps := acc.pathStat(labels, pid)
		if ps == nil && prev == nil {
			continue
		}
		out.byID[pid] = ps
		changed = append(changed, pid)
		relist = relist || (ps == nil) != (prev == nil)
	}
	out.seq = ts.patterns.advance(changed)

	switch {
	case relist:
		out.listPaths()
	case len(changed) == 0:
		out.List = ts.List
	default:
		out.List = make([]*PathStat, len(ts.List))
		for i, ps := range ts.List {
			out.List[i] = out.byID[ps.PathID]
		}
		out.Paths = maps.Clone(ts.Paths)
		for _, pid := range changed {
			out.Paths[out.byID[pid].Path()] = out.byID[pid]
		}
	}
	return out, nil
}

// Merge folds another mergeable TableStats into this one and returns
// the combined snapshot at the given version — the combinator for
// collecting disjoint document subsets separately (e.g. in parallel, or
// one per shard) and unifying them. Statistics over a different path
// dictionary are rebased onto the receiver's first, so per-shard tables
// — each of which interns paths in its own arrival order — merge by
// rooted label path, not by raw PathID. The other statistics remain
// readable; the receiver follows the same newest-snapshot discipline as
// ApplyDelta.
func (ts *TableStats) Merge(other *TableStats, version int64) (*TableStats, error) {
	if other.acc == nil {
		return nil, fmt.Errorf("xstats: statistics for %q were not collected in mergeable form", other.Table)
	}
	src := other.acc
	if ts.acc != nil && src.dict != ts.dict {
		src = src.Rebase(ts.dict)
	}
	return ts.ApplyDelta(src, version)
}

// Clone returns a snapshot whose mergeable store is independent of the
// receiver's, safe to Merge into another synopsis while the original's
// owner (e.g. a keeper) keeps folding deltas into it. Statistics
// without a store are immutable already and are returned as-is. Callers
// holding keeper-built snapshots should clone through Keeper.CloneStats
// instead, which serializes against the keeper's own folds.
func (ts *TableStats) Clone() *TableStats {
	if ts.acc == nil {
		return ts
	}
	return FromDelta(ts.Table, ts.Version, ts.acc.Clone())
}
