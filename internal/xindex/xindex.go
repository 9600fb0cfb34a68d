// Package xindex implements XML path-value indexes: partial indexes
// defined by a linear XPath pattern and a data type, as created in DB2 9
// with CREATE INDEX ... GENERATE KEY USING XMLPATTERN (paper §II, §III).
//
// An index contains one entry per node reachable by its pattern, keyed
// by the node's typed value and carrying a (document, node) reference.
// Indexes are backed by a B+-tree. The optimizer's Enumerate/Evaluate
// modes never build one: a hypothetical index is just its Definition,
// sized and costed from the path synopsis (xstats.TableStats.ForPattern).
//
// Build makes a detached index: a one-off image of the table that
// follows no later change — the reference online builds are compared
// against, and what offline sizing uses. BuildOnline makes the kind a
// serving catalog holds: it maintains itself from the table's change
// feed and stamps every entry's birth and death, so it can answer as of
// any snapshot from its build on (ScanAsOf).
package xindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"

	"xixa/internal/btree"
	"xixa/internal/storage"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

// Definition identifies an index: the table it indexes, its linear
// XPath pattern, and its key type.
type Definition struct {
	Table   string
	Pattern xpath.Path
	Type    xpath.ValueKind
}

// String renders the definition the way the paper's tables do, e.g.
// "/Security/Yield numerical on SECURITY".
func (d Definition) String() string {
	return fmt.Sprintf("%s %s on %s", d.Pattern.String(), d.Type, d.Table)
}

// Key returns a canonical identity string for maps.
func (d Definition) Key() string {
	var buf [128]byte
	return string(d.AppendKey(buf[:0]))
}

// AppendKey appends the bytes of Key to b. A caller that builds the key
// in a stack buffer and looks a map up with m[string(key)] allocates
// nothing.
func (d Definition) AppendKey(b []byte) []byte {
	b = append(b, d.Table...)
	b = append(b, '|')
	b = xpath.AppendLinear(b, d.Pattern)
	b = append(b, '|')
	return append(b, d.Type.String()...)
}

// Validate checks the definition's pattern is a legal index pattern.
func (d Definition) Validate() error {
	if d.Table == "" {
		return fmt.Errorf("xindex: definition missing table")
	}
	if d.Pattern.Relative {
		return fmt.Errorf("xindex: pattern must be absolute: %s", d.Pattern)
	}
	if !d.Pattern.IsLinear() {
		return fmt.Errorf("xindex: pattern must be linear (no predicates): %s", d.Pattern)
	}
	if len(d.Pattern.Steps) == 0 {
		return fmt.Errorf("xindex: empty pattern")
	}
	return nil
}

// Ref is an index payload: a document and a node within it.
type Ref struct {
	Doc  int64
	Node xmltree.NodeID
}

func packRef(r Ref) uint64 {
	return uint64(r.Doc)<<24 | uint64(uint32(r.Node))&0xFFFFFF
}

func unpackRef(v uint64) Ref {
	return Ref{Doc: int64(v >> 24), Node: xmltree.NodeID(v & 0xFFFFFF)}
}

// encodeKey produces the order-preserving byte encoding of a typed
// value: strings are tagged raw bytes; doubles are tagged big-endian
// with the sign bit flipped (and negative values complemented) so byte
// order equals numeric order. NaN has no place in that order — callers
// must filter NaN out (keyFor and Scan do) before encoding.
func encodeKey(kind xpath.ValueKind, str string, num float64) []byte {
	if kind == xpath.StringVal {
		out := make([]byte, 1+len(str))
		out[0] = 's'
		copy(out[1:], str)
		return out
	}
	bits := math.Float64bits(num)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	out := make([]byte, 9)
	out[0] = 'n'
	binary.BigEndian.PutUint64(out[1:], bits)
	return out
}

// Index is a materialized path-value index. An index is safe for
// concurrent use: scans take a read lock, maintenance takes a write
// lock, so the serving read path can probe an index while the change
// feed maintains it.
type Index struct {
	Def Definition

	// mu guards tree, matched, and states. Uncontended in the batch
	// paths; under the serving daemon it orders feed-driven maintenance
	// against concurrent probes.
	mu   sync.RWMutex
	tree *btree.Tree

	// dict is the owning table's path dictionary; matched[pid] reports
	// whether the pattern matches the interned path, and states holds
	// the per-path NFA state sets so the matched set extends
	// incrementally when inserts grow the dictionary. The pattern is
	// matched against the (tiny) dictionary instead of evaluating it
	// per node per document.
	matcher *xpath.PathMatcher
	dict    *xmltree.PathDict
	matched []bool
	states  []xpath.MatchState

	// online is non-nil for indexes built by BuildOnline: they maintain
	// themselves from the table's change feed.
	online *onlineState

	// Version bookkeeping for snapshot (as-of-stamp) scans. borns maps a
	// live entry's packed ref to the commit stamp that created the
	// version it indexes; absent means born at stamp 0 (present in the
	// build snapshot, visible to every snapshot). graveyard holds entries
	// superseded by a stamped delete or replace: a snapshot at stamp S
	// still sees a tomb with born <= S < died. versionedSince is the
	// earliest stamp as-of which the version bookkeeping is complete
	// (deletes that committed before the online build's capture left no
	// tombs); ScanAsOf answers only for asOf >= versionedSince.
	borns          map[uint64]uint64
	graveyard      []tomb
	versionedSince uint64
	lastPrune      int

	// catchupEvents counts the change-feed events BuildOnline's catch-up
	// phase replayed; fixed before the index is published.
	catchupEvents int
}

// tomb is a dead index entry kept for snapshot scans: the entry's key
// and ref plus the half-open stamp interval [born, died) during which
// the version it indexed was current.
type tomb struct {
	key        []byte
	ref        uint64
	born, died uint64
}

// Build creates and populates an index over the current contents of the
// table. Nodes whose value does not parse as a number are skipped for
// numeric indexes (DB2's IGNORE INVALID VALUES behaviour). The index is
// detached: it never subscribes to the table, so it moves only through
// OnInsert/OnDelete, and an engine declines to probe it.
func Build(t *storage.Table, def Definition) (*Index, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if t.Name != def.Table {
		return nil, fmt.Errorf("xindex: definition targets table %q, got %q", def.Table, t.Name)
	}
	idx := newEmpty(t, def)
	t.Scan(func(doc *xmltree.Document) bool {
		idx.insertDoc(doc)
		return true
	})
	return idx, nil
}

// newEmpty builds the index shell Build and BuildOnline share.
func newEmpty(t *storage.Table, def Definition) *Index {
	idx := &Index{Def: def, tree: btree.MustNewTree(0)}
	if xpath.CompilablePattern(def.Pattern) {
		// Patterns beyond the NFA state budget (never produced by the
		// advisor) keep the per-document evaluation fallback.
		idx.matcher = xpath.NewPathMatcher(def.Pattern)
		idx.dict = t.PathDict()
	}
	return idx
}

// ensureMatched extends the matched-path set to cover every dictionary
// entry, threading the pattern NFA parent→child over the new entries.
func (x *Index) ensureMatched() []bool {
	snap := x.dict.Snapshot()
	if len(x.matched) < len(snap) {
		x.states = x.matcher.ExtendStates(snap, x.states)
		for i := len(x.matched); i < len(snap); i++ {
			x.matched = append(x.matched, x.matcher.Matched(x.states[i]))
		}
	}
	return x.matched
}

// matchingNodes returns the nodes of the document reachable by the
// index pattern. The path-evaluation fallback only runs for documents
// that do not share the table dictionary.
func (x *Index) matchingNodes(doc *xmltree.Document) []xmltree.NodeID {
	return xpath.Eval(doc, x.Def.Pattern)
}

func (x *Index) keyFor(doc *xmltree.Document, id xmltree.NodeID) ([]byte, bool) {
	// Extract the node text once; the numeric key parses the same
	// string rather than re-walking the subtree.
	s := strings.TrimSpace(doc.TextOf(id))
	if x.Def.Type == xpath.NumberVal {
		v, ok := xmltree.ParseNumeric(s)
		// NaN is an invalid index value (DB2's IGNORE INVALID VALUES):
		// its sign-flipped encoding would land in the positive-number
		// key range and surface from range scans, yet no comparison is
		// ever true for NaN.
		if !ok || math.IsNaN(v) {
			return nil, false
		}
		return encodeKey(xpath.NumberVal, "", v), true
	}
	return encodeKey(xpath.StringVal, s, 0), true
}

// eachMatch visits every node of the document the index pattern
// reaches. Documents interned against the table dictionary are scanned
// linearly against the precomputed matched-path set; others fall back
// to pattern evaluation.
func (x *Index) eachMatch(doc *xmltree.Document, visit func(id xmltree.NodeID)) {
	if doc.Dict == x.dict && x.dict != nil && len(doc.PathIDs) == doc.Len() {
		matched := x.ensureMatched()
		for i := range doc.Nodes {
			if doc.Nodes[i].Kind == xmltree.Text {
				continue
			}
			pid := doc.PathIDs[i]
			if pid >= 0 && int(pid) < len(matched) && matched[pid] {
				visit(xmltree.NodeID(i))
			}
		}
		return
	}
	for _, id := range x.matchingNodes(doc) {
		visit(id)
	}
}

func (x *Index) insertDoc(doc *xmltree.Document) int { return x.insertDocAt(doc, 0) }

func (x *Index) deleteDoc(doc *xmltree.Document) int { return x.deleteDocAt(doc, 0) }

// insertDocAt indexes one document version born at the given commit
// stamp (0 for unstamped maintenance: batch builds and OnInsert on a
// detached index — visible to every snapshot).
func (x *Index) insertDocAt(doc *xmltree.Document, stamp uint64) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	added := 0
	x.eachMatch(doc, func(id xmltree.NodeID) {
		key, ok := x.keyFor(doc, id)
		if !ok {
			return
		}
		ref := packRef(Ref{Doc: doc.DocID, Node: id})
		if x.tree.Insert(key, ref) {
			added++
			if stamp > 0 {
				if x.borns == nil {
					x.borns = make(map[uint64]uint64)
				}
				x.borns[ref] = stamp
			}
		}
	})
	x.pruneLocked()
	return added
}

// deleteDocAt unindexes one document version at the given commit stamp.
// A stamped delete moves each entry to the graveyard so snapshots older
// than the delete keep seeing it; an unstamped delete (stamp 0) drops
// the entries outright.
func (x *Index) deleteDocAt(doc *xmltree.Document, stamp uint64) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	removed := 0
	x.eachMatch(doc, func(id xmltree.NodeID) {
		key, ok := x.keyFor(doc, id)
		if !ok {
			return
		}
		ref := packRef(Ref{Doc: doc.DocID, Node: id})
		if x.tree.Delete(key, ref) {
			removed++
			born := x.borns[ref]
			delete(x.borns, ref)
			if stamp > 0 {
				x.graveyard = append(x.graveyard, tomb{key: key, ref: ref, born: born, died: stamp})
			}
		}
	})
	x.pruneLocked()
	return removed
}

// pruneLocked forgets version bookkeeping no snapshot can need: tombs
// whose death is at or below the table's horizon (every current and
// future snapshot reads at or above it) and born records at or below it
// (the born <= asOf filter is then vacuous, which absence also means).
// Amortized by a doubling heuristic over both kinds of record, so
// neither a churn-heavy nor an insert-only feed pays a pass per event.
func (x *Index) pruneLocked() {
	if n := len(x.graveyard) + len(x.borns); x.online == nil || n < 64 || n < 2*x.lastPrune {
		return
	}
	h := x.online.table.Horizon()
	kept := x.graveyard[:0]
	for _, t := range x.graveyard {
		if t.died > h {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(x.graveyard); i++ {
		x.graveyard[i] = tomb{}
	}
	x.graveyard = kept
	for ref, born := range x.borns {
		if born <= h {
			delete(x.borns, ref)
		}
	}
	x.lastPrune = len(x.graveyard) + len(x.borns)
}

// OnInsert indexes a document by hand — the way to move a detached
// index, which follows no feed — and returns the number of entries added.
func (x *Index) OnInsert(doc *xmltree.Document) int { return x.insertDoc(doc) }

// OnDelete unindexes a document by hand (see OnInsert) and returns the
// number of entries removed.
func (x *Index) OnDelete(doc *xmltree.Document) int { return x.deleteDoc(doc) }

// Entries returns the number of index entries.
func (x *Index) Entries() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.tree.Len()
}

// Levels returns the B+-tree height.
func (x *Index) Levels() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.tree.Levels()
}

// SizeBytes returns the materialized index size.
func (x *Index) SizeBytes() int64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.tree.SizeBytes()
}

// Walk visits every entry in (key, ref) order — the index's canonical
// content enumeration, used to assert that an online build converged to
// exactly the state a cold build produces. The visit function returns
// false to stop.
func (x *Index) Walk(visit func(key []byte, ref Ref) bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	x.tree.AscendRange(nil, nil, true, true, func(k []byte, v uint64) bool {
		return visit(k, unpackRef(v))
	})
}

// Scan visits the current entries satisfying (op, lit) in key order —
// ScanAsOf at a stamp no commit has reached. For OpNe the scan is a
// full scan with the equal keys skipped. The visit function returns
// false to stop. It reports the number of index entries visited (the
// scan work), which the engine's work counters use.
func (x *Index) Scan(op xpath.CmpOp, lit xpath.Value, visit func(Ref) bool) int {
	return x.ScanAsOf(op, lit, math.MaxUint64, visit)
}

// scanRange is the key-space interval a comparison translates to.
type scanRange struct {
	lo, hi         []byte
	loIncl, hiIncl bool
	skipEq         []byte // OpNe: full type range minus this key
}

// contains reports whether a key falls inside the range — the same
// predicate AscendRange applies, for filtering keys held outside the
// tree (the graveyard).
func (r scanRange) contains(k []byte) bool {
	if r.skipEq != nil && bytes.Equal(k, r.skipEq) {
		return false
	}
	if r.lo != nil {
		if c := bytes.Compare(k, r.lo); c < 0 || (c == 0 && !r.loIncl) {
			return false
		}
	}
	if r.hi != nil {
		if c := bytes.Compare(k, r.hi); c > 0 || (c == 0 && !r.hiIncl) {
			return false
		}
	}
	return true
}

// scanBounds translates (op, lit) into the key range to scan; ok is
// false when the index cannot answer the comparison at all (type
// mismatch, NaN, unknown operator).
func (x *Index) scanBounds(op xpath.CmpOp, lit xpath.Value) (scanRange, bool) {
	r := scanRange{loIncl: true, hiIncl: true}
	switch {
	case lit.Kind == xpath.NumberVal && x.Def.Type != xpath.NumberVal,
		lit.Kind == xpath.StringVal && x.Def.Type != xpath.StringVal:
		return r, false // type mismatch: index cannot answer this comparison
	}
	if lit.Kind == xpath.NumberVal && math.IsNaN(lit.Num) {
		return r, false // no comparison against NaN holds, and NaN has no key
	}
	key := encodeKey(lit.Kind, lit.Str, lit.Num)
	switch op {
	case xpath.OpEq:
		r.lo, r.hi = key, key
	case xpath.OpLt:
		r.hi, r.hiIncl = key, false
		r.lo = typeFloor(lit.Kind)
	case xpath.OpLe:
		r.hi = key
		r.lo = typeFloor(lit.Kind)
	case xpath.OpGt:
		r.lo, r.loIncl = key, false
		r.hi = typeCeil(lit.Kind)
	case xpath.OpGe:
		r.lo = key
		r.hi = typeCeil(lit.Kind)
	case xpath.OpNe:
		r.lo, r.hi = typeFloor(lit.Kind), typeCeil(lit.Kind)
		r.skipEq = key
	default:
		return r, false
	}
	return r, true
}

// VersionedSince is the earliest commit stamp as-of which ScanAsOf
// answers exactly: for a self-maintained index, the table's stamp
// ceiling at the online build's capture instant (deletes committed
// before capture left no tombs, so older snapshots cannot be served).
// Detached (Build) indexes return 0 but carry no version bookkeeping at
// all; only self-maintained indexes support snapshot scans.
func (x *Index) VersionedSince() uint64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.versionedSince
}

// ScanAsOf visits the entries satisfying (op, lit) as of commit stamp
// asOf: live entries born at or before asOf, plus graveyard entries
// whose version was current at asOf (born <= asOf < died). Tree entries
// arrive in key order; graveyard entries follow unordered — callers
// intersect document sets, so order is immaterial. The visit function
// returns false to stop. Exact for a past stamp only on a
// self-maintained index with asOf >= VersionedSince; it returns the
// number of entries visited.
func (x *Index) ScanAsOf(op xpath.CmpOp, lit xpath.Value, asOf uint64, visit func(Ref) bool) int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	r, ok := x.scanBounds(op, lit)
	if !ok {
		return 0
	}
	stopped := false
	n := x.tree.AscendRange(r.lo, r.hi, r.loIncl, r.hiIncl, func(k []byte, v uint64) bool {
		if r.skipEq != nil && string(k) == string(r.skipEq) {
			return true
		}
		if x.borns[v] > asOf {
			return true // version created after the snapshot
		}
		stopped = !visit(unpackRef(v))
		return !stopped
	})
	for i := 0; i < len(x.graveyard) && !stopped; i++ {
		t := &x.graveyard[i]
		if t.born <= asOf && asOf < t.died && r.contains(t.key) {
			n++
			stopped = !visit(unpackRef(t.ref))
		}
	}
	return n
}

// typeFloor/typeCeil bound the key space of one type tag, so ranges do
// not leak into the other type's keys.
func typeFloor(kind xpath.ValueKind) []byte {
	if kind == xpath.NumberVal {
		return []byte{'n'}
	}
	return []byte{'s'}
}

func typeCeil(kind xpath.ValueKind) []byte {
	if kind == xpath.NumberVal {
		return []byte{'n' + 1}
	}
	return []byte{'s' + 1}
}

// Matches reports whether this index can answer a query's indexable
// predicate on the given pattern with the given literal type: the type
// must agree and the index pattern must cover the query pattern.
func (d Definition) Matches(queryPattern xpath.Path, litKind xpath.ValueKind) bool {
	if d.Type != litKind {
		return false
	}
	return xpath.Contains(d.Pattern, queryPattern)
}
