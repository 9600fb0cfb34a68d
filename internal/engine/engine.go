// Package engine executes optimizer plans against real storage and real
// indexes. It exists so the reproduction can measure *actual* speedups
// (paper Fig. 5) by really running workloads with and without the
// recommended indexes, not just comparing optimizer estimates.
//
// The engine reports deterministic work counters (nodes visited, index
// entries scanned, documents fetched) alongside wall-clock time; the
// counters are the primary metric because they are reproducible.
//
// Every statement runs as a transaction (Txn) against one pinned
// snapshot — a plain query is the read-only case — so there is one
// visibility rule, and the plan the optimizer costed is interpreted by
// one matchDocs. The engine maintains no index: a catalog holds
// self-maintained indexes (xindex.BuildOnline), which follow commits
// through the table's change feed and answer as of a snapshot's stamp;
// a plan naming any other index runs as a scan.
package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xixa/internal/obs"
	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// Catalog holds the materialized indexes available for execution. The
// catalog maintains its indexes sorted by definition key, so the
// per-statement listing calls (Definitions, ForTable, TotalSizeBytes)
// iterate a ready-sorted slice instead of re-sorting on every call.
//
// The catalog is safe for concurrent use and its read path is
// lock-free: the index set lives in an immutable state published
// through an atomic pointer, so the serving daemon's tuning loop can
// swap indexes in and out (Add/Drop) while statements read the catalog
// without taking any lock. A statement pins one View for its whole
// execution, so the plan it chose and the indexes it probes can never
// disagree even if the catalog changes mid-statement.
type Catalog struct {
	mu    sync.Mutex // serializes writers (Add/Drop)
	state atomic.Pointer[catalogState]
}

// catalogState is one immutable catalog configuration.
type catalogState struct {
	indexes map[string]*xindex.Index
	keys    []string        // sorted definition keys
	sorted  []*xindex.Index // indexes aligned with keys
}

var emptyCatalogState = &catalogState{indexes: map[string]*xindex.Index{}}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	c := &Catalog{}
	c.state.Store(emptyCatalogState)
	return c
}

// clone copies the state for a writer about to modify it.
func (s *catalogState) clone() *catalogState {
	out := &catalogState{
		indexes: make(map[string]*xindex.Index, len(s.indexes)+1),
		keys:    append([]string(nil), s.keys...),
		sorted:  append([]*xindex.Index(nil), s.sorted...),
	}
	for k, v := range s.indexes {
		out.indexes[k] = v
	}
	return out
}

// Add registers a built index, atomically publishing the new
// configuration.
func (c *Catalog) Add(idx *xindex.Index) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.state.Load().clone()
	key := idx.Def.Key()
	pos := sort.SearchStrings(s.keys, key)
	if _, exists := s.indexes[key]; exists {
		s.sorted[pos] = idx
	} else {
		s.keys = append(s.keys, "")
		copy(s.keys[pos+1:], s.keys[pos:])
		s.keys[pos] = key
		s.sorted = append(s.sorted, nil)
		copy(s.sorted[pos+1:], s.sorted[pos:])
		s.sorted[pos] = idx
	}
	s.indexes[key] = idx
	c.state.Store(s)
}

// Drop removes an index by definition, reporting whether it existed.
// Views pinned before the drop still resolve the index; callers that
// must wait for them to finish use the serving layer's drain barrier
// (xindex.Manager.DropDeferred).
func (c *Catalog) Drop(def xindex.Definition) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := def.Key()
	s := c.state.Load()
	if _, ok := s.indexes[key]; !ok {
		return false
	}
	s = s.clone()
	delete(s.indexes, key)
	pos := sort.SearchStrings(s.keys, key)
	s.keys = append(s.keys[:pos], s.keys[pos+1:]...)
	s.sorted = append(s.sorted[:pos], s.sorted[pos+1:]...)
	c.state.Store(s)
	return true
}

// View pins the current configuration: an immutable snapshot that
// answers Get/Definitions/ForTable consistently no matter what Add and
// Drop do afterwards. Views are cheap (one atomic load) and need no
// release.
func (c *Catalog) View() View { return View{s: c.state.Load()} }

// Get fetches the index materializing a definition.
func (c *Catalog) Get(def xindex.Definition) (*xindex.Index, bool) {
	return c.View().Get(def)
}

// Definitions lists the catalog's definitions in deterministic order.
func (c *Catalog) Definitions() []xindex.Definition {
	return c.View().Definitions()
}

// ForTable returns the indexes on one table.
func (c *Catalog) ForTable(table string) []*xindex.Index {
	return c.View().ForTable(table)
}

// TotalSizeBytes sums the materialized index sizes.
func (c *Catalog) TotalSizeBytes() int64 {
	return c.View().TotalSizeBytes()
}

// View is an immutable catalog snapshot. The zero View is empty.
type View struct {
	s *catalogState
}

func (v View) state() *catalogState {
	if v.s == nil {
		return emptyCatalogState
	}
	return v.s
}

// Get fetches the index materializing a definition.
func (v View) Get(def xindex.Definition) (*xindex.Index, bool) {
	idx, ok := v.state().indexes[def.Key()]
	return idx, ok
}

// Definitions lists the view's definitions in deterministic order.
func (v View) Definitions() []xindex.Definition {
	s := v.state()
	out := make([]xindex.Definition, len(s.sorted))
	for i, idx := range s.sorted {
		out[i] = idx.Def
	}
	return out
}

// ForTable returns the view's indexes on one table.
func (v View) ForTable(table string) []*xindex.Index {
	var out []*xindex.Index
	for _, idx := range v.state().sorted {
		if idx.Def.Table == table {
			out = append(out, idx)
		}
	}
	return out
}

// TotalSizeBytes sums the view's materialized index sizes.
func (v View) TotalSizeBytes() int64 {
	var total int64
	for _, idx := range v.state().sorted {
		total += idx.SizeBytes()
	}
	return total
}

// Stats are the work counters of one execution.
type Stats struct {
	NodesScanned     int64 // nodes touched by document scans
	IndexEntriesRead int64 // index entries visited
	IndexProbes      int64 // index range scans issued
	DocsFetched      int64 // documents fetched for verification
	ResultCount      int64 // bound nodes returned
	DocsModified     int64 // documents inserted/deleted/updated
	Elapsed          time.Duration
}

// WorkUnits collapses the counters into one deterministic cost-like
// number, weighted identically to the optimizer's cost constants so
// estimated and actual speedups are comparable in shape.
func (s Stats) WorkUnits() float64 {
	return float64(s.NodesScanned)*optimizer.CostPerScannedNode +
		float64(s.IndexEntriesRead)*optimizer.CostPerIndexEntry +
		float64(s.IndexProbes)*optimizer.CostPerIndexPage +
		float64(s.DocsFetched)*optimizer.CostPerFetchedNode +
		float64(s.DocsModified)*optimizer.CostPerModifiedNode
}

// Add accumulates counters.
func (s *Stats) Add(o Stats) {
	s.NodesScanned += o.NodesScanned
	s.IndexEntriesRead += o.IndexEntriesRead
	s.IndexProbes += o.IndexProbes
	s.DocsFetched += o.DocsFetched
	s.ResultCount += o.ResultCount
	s.DocsModified += o.DocsModified
	s.Elapsed += o.Elapsed
}

// Engine executes statements.
type Engine struct {
	db  *storage.Database
	opt *optimizer.Optimizer
	cat *Catalog
}

// New creates an engine over a database, its optimizer, and a catalog
// of real indexes.
func New(db *storage.Database, opt *optimizer.Optimizer, cat *Catalog) *Engine {
	return &Engine{db: db, opt: opt, cat: cat}
}

// Execute optimizes the statement against the catalog's real indexes
// and runs the chosen plan. It returns the bound result nodes (for
// queries) and the execution statistics. Every statement runs as an
// auto-commit transaction (Begin, Execute, Commit): a query reads one
// snapshot pinned at the watermark, and a mutation surfaces
// storage.ErrConflict when a concurrent commit wins the document first,
// with nothing applied. The catalog configuration is pinned with the
// snapshot, so a concurrent index swap or drop can never leave the
// chosen plan pointing at an index the execution cannot resolve.
func (e *Engine) Execute(stmt *xquery.Statement) ([]xindex.Ref, Stats, error) {
	return e.execute(stmt, nil, nil)
}

// ExecuteTraced is Execute with an optional trace attached: plan-phase
// spans (optimize, index scan, xpath verify) and per-plan-node
// estimated-vs-actual cardinalities are recorded into qt. A nil qt
// skips all trace bookkeeping (including its clock reads).
func (e *Engine) ExecuteTraced(stmt *xquery.Statement, qt *obs.QueryTrace) ([]xindex.Ref, Stats, error) {
	return e.execute(stmt, nil, qt)
}

// ExecutePlan runs an already-chosen plan against the current catalog
// configuration.
func (e *Engine) ExecutePlan(plan *optimizer.Plan) ([]xindex.Ref, Stats, error) {
	return e.execute(plan.Stmt, plan, nil)
}

// execute runs one statement as its own transaction; a nil plan is
// chosen by the interpreter.
func (e *Engine) execute(stmt *xquery.Statement, plan *optimizer.Plan, qt *obs.QueryTrace) ([]xindex.Ref, Stats, error) {
	start := time.Now()
	tx := e.Begin()
	refs, st, err := tx.execute(stmt, plan, qt)
	if err != nil {
		tx.Rollback()
		return nil, st, err
	}
	if _, err := tx.Commit(nil); err != nil {
		return nil, st, err
	}
	st.Elapsed = time.Since(start) // the commit is part of the statement
	return refs, st, nil
}

// setNodeText replaces the text content of an element (or the value of
// an attribute) with the literal's rendering.
func setNodeText(doc *xmltree.Document, id xmltree.NodeID, v xpath.Value) {
	text := v.Str
	if v.Kind == xpath.NumberVal {
		text = trimFloat(v.Num)
	}
	n := doc.Node(id)
	if n.Kind == xmltree.Attribute {
		n.Value = text
		return
	}
	// Element: rewrite its first text child, or do nothing for
	// structure-only elements (the dialect only updates leaves).
	for _, c := range n.Children {
		cn := doc.Node(c)
		if cn.Kind == xmltree.Text {
			cn.Value = text
			return
		}
	}
}

func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}

// cloneDoc deep-copies a document so repeated inserts do not alias.
// The clone shares the source's (append-only) path dictionary and
// copies its PathIDs, so insertion only needs to rebase them.
func cloneDoc(d *xmltree.Document) *xmltree.Document {
	out := &xmltree.Document{Nodes: make([]xmltree.Node, len(d.Nodes)), Dict: d.Dict}
	copy(out.Nodes, d.Nodes)
	for i := range out.Nodes {
		if len(d.Nodes[i].Children) > 0 {
			out.Nodes[i].Children = append([]xmltree.NodeID(nil), d.Nodes[i].Children...)
		}
	}
	if len(d.PathIDs) > 0 {
		out.PathIDs = append([]xmltree.PathID(nil), d.PathIDs...)
	}
	return out
}

// RunWorkload executes every statement of a workload (repeating each
// per its frequency is intentionally NOT done: like the paper's actual
// runs, each unique statement executes once and counters scale by
// frequency). It returns aggregate stats weighted by frequency.
func (e *Engine) RunWorkload(items []WorkloadItem) (Stats, error) {
	var total Stats
	for _, it := range items {
		_, st, err := e.Execute(it.Stmt)
		if err != nil {
			return total, err
		}
		weighted := st
		f := int64(it.Freq)
		if f < 1 {
			f = 1
		}
		weighted.NodesScanned *= f
		weighted.IndexEntriesRead *= f
		weighted.IndexProbes *= f
		weighted.DocsFetched *= f
		weighted.ResultCount *= f
		weighted.DocsModified *= f
		weighted.Elapsed = time.Duration(int64(st.Elapsed) * f)
		total.Add(weighted)
	}
	return total, nil
}

// WorkloadItem pairs a statement with its frequency, mirroring
// workload.Item without importing it (avoids a dependency cycle when
// workload tooling imports the engine).
type WorkloadItem struct {
	Stmt *xquery.Statement
	Freq int
}
