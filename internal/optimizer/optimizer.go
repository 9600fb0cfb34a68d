// Package optimizer implements the cost-based query optimizer the
// advisor is tightly coupled to, including the two server-side modes
// the paper adds to DB2 (§III):
//
//   - Enumerate Indexes mode: a virtual universal index (pattern //*,
//     plus //@* for attributes) is planted, the statement is rewritten
//     and index-matched against it, and every matched index pattern is
//     reported as a basic candidate.
//   - Evaluate Indexes mode: a configuration of virtual indexes (index
//     definitions whose statistics are derived from the path synopsis)
//     is planted and the statement's cheapest plan cost under that
//     configuration is returned.
//
// The same plan-selection code also produces executable plans over real
// indexes for the engine, so estimated and actual experiments share one
// optimizer, exactly as in the paper's prototype.
package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"xixa/internal/storage"
	"xixa/internal/xindex"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
	"xixa/internal/xstats"
)

// PredSite is an indexable predicate site discovered in a statement
// after rewriting: a linear absolute pattern, a comparison, and a typed
// literal. Index matching pairs candidate indexes with sites.
type PredSite struct {
	// Ordinal is the site's position within the statement (stable ID).
	Ordinal int
	// Pattern is the linear absolute path to the compared node.
	Pattern xpath.Path
	// Op and Lit form the comparison.
	Op  xpath.CmpOp
	Lit xpath.Value
}

// Key identifies the site's pattern and type for bitmap bookkeeping
// (the greedy heuristic's "XPath patterns in the workload" bitmap).
func (s PredSite) Key() string {
	return s.Pattern.String() + "|" + s.Lit.Kind.String()
}

// Access is one index choice for one predicate site inside a plan.
type Access struct {
	Site  PredSite
	Index xindex.Definition
	// EntriesScanned is the estimated number of index entries read.
	EntriesScanned float64
	// DocFraction is the estimated fraction of documents surviving this
	// access's filter.
	DocFraction float64
}

// Plan is the optimizer's chosen access plan for one statement.
type Plan struct {
	Stmt *xquery.Statement
	// Accesses is empty for a full-scan plan.
	Accesses []Access
	// EstCost is the estimated execution cost in timerons.
	EstCost float64
	// EstBaseCost is the full-scan cost for reference.
	EstBaseCost float64
	// EstMatchingDocs is the estimated number of documents satisfying
	// all of the statement's predicates (the FILTER node's output
	// cardinality).
	EstMatchingDocs float64
	// EstCandidateDocs is the estimated number of candidate documents
	// surviving index intersection (the FETCH node's input
	// cardinality). For a full-scan plan it equals the table's document
	// count. Execution compares these against observed actuals to
	// measure estimation error.
	EstCandidateDocs float64
}

// UsesIndexes reports whether the plan uses any index.
func (p *Plan) UsesIndexes() bool { return len(p.Accesses) > 0 }

// String renders a one-line EXPLAIN summary.
func (p *Plan) String() string {
	if !p.UsesIndexes() {
		return fmt.Sprintf("TBSCAN cost=%.0f", p.EstCost)
	}
	parts := make([]string, len(p.Accesses))
	for i, a := range p.Accesses {
		parts[i] = a.Index.Pattern.String()
	}
	return fmt.Sprintf("IXAND(%s) cost=%.0f", strings.Join(parts, ","), p.EstCost)
}

// StatsSource supplies per-table statistics to the optimizer. The
// static source (New) freezes statistics at collection time; the live
// source (NewLive) maintains them incrementally from table change
// events, so what-if costing always sees statistics matching the data.
type StatsSource interface {
	TableStats(table string) (*xstats.TableStats, error)
}

// staticStats is the frozen StatsSource over a collected map.
type staticStats map[string]*xstats.TableStats

func (m staticStats) TableStats(table string) (*xstats.TableStats, error) {
	ts, ok := m[table]
	if !ok {
		return nil, fmt.Errorf("optimizer: no statistics for table %q (run CollectStats)", table)
	}
	return ts, nil
}

// Optimizer is the cost-based optimizer. It reads table statistics (the
// RUNSTATS synopsis) and decides plans; it never touches real index
// contents, so virtual and real indexes are optimized identically.
type Optimizer struct {
	db     *storage.Database
	source StatsSource

	enumerateCalls atomic.Int64
	evaluateCalls  atomic.Int64

	// compiled caches one CompiledStatement per statement (see
	// compiled.go): the extracted sites, per-site statistics, and base
	// cost are configuration-invariant, so the thousands of Evaluate
	// Indexes calls a search issues reduce to arithmetic over the
	// configuration. compiledLen approximates the entry count for the
	// overflow flush.
	compiled    sync.Map // *xquery.Statement -> *CompiledStatement
	compiledLen atomic.Int64

	// planCache, when non-nil, memoizes Evaluate Indexes results (see
	// plancache.go). Off unless EnablePlanCache is called.
	planCache atomic.Pointer[planCache]
}

// New creates an optimizer over a database with collected statistics.
// The statistics are frozen at collection time: after table mutations,
// plans keep costing against the old synopsis. Engines executing
// insert/delete/update streams should use NewLive instead.
func New(db *storage.Database, stats map[string]*xstats.TableStats) *Optimizer {
	return &Optimizer{db: db, source: staticStats(stats)}
}

// NewLive creates an optimizer whose statistics track table mutations:
// each table gets an incremental statistics keeper (xstats.Keeper)
// subscribed to its change feed, built lazily on first use. Every
// optimization then sees statistics bit-identical to a fresh RUNSTATS
// at the table's current version, at O(changes) refresh cost, and
// compiled statements and plan-cache entries keyed against stale
// versions are rebuilt automatically.
func NewLive(db *storage.Database) *Optimizer {
	return &Optimizer{db: db, source: xstats.NewKeeperSet(db)}
}

// NewWithSource creates an optimizer over a custom statistics source.
func NewWithSource(db *storage.Database, source StatsSource) *Optimizer {
	return &Optimizer{db: db, source: source}
}

// CollectStats runs statistics collection for every table of a database
// (the RUNSTATS step of the paper's architecture).
func CollectStats(db *storage.Database) map[string]*xstats.TableStats {
	out := make(map[string]*xstats.TableStats)
	for _, name := range db.TableNames() {
		t, err := db.Table(name)
		if err != nil {
			continue
		}
		out[name] = xstats.Collect(t)
	}
	return out
}

// EnumerateCalls returns how many Enumerate Indexes optimizations ran.
func (o *Optimizer) EnumerateCalls() int64 { return o.enumerateCalls.Load() }

// EvaluateCalls returns how many Evaluate Indexes optimizations ran.
// The advisor's efficient benefit evaluation (paper §VI-C) exists to
// minimize this number.
func (o *Optimizer) EvaluateCalls() int64 { return o.evaluateCalls.Load() }

// ResetCallCounters zeroes both mode counters.
func (o *Optimizer) ResetCallCounters() {
	o.enumerateCalls.Store(0)
	o.evaluateCalls.Store(0)
}

// tableStats fetches the synopsis for a statement's table.
func (o *Optimizer) tableStats(table string) (*xstats.TableStats, error) {
	return o.source.TableStats(table)
}

// TableStats returns the optimizer's current statistics snapshot for a
// table — frozen for New, current-version for NewLive. The advisor
// derives virtual-index statistics through this accessor so it always
// agrees with what-if costing.
func (o *Optimizer) TableStats(table string) (*xstats.TableStats, error) {
	return o.source.TableStats(table)
}

// SnapshotTableStats returns an independently-owned statistics snapshot
// for a table, safe to Merge into another synopsis. Live sources clone
// under the keeper's lock (the retained store keeps mutating as the
// table does); frozen sources return their immutable snapshot directly.
// This is the handle a cross-shard stats plane reads: each shard's
// synopsis is snapshotted here, then merged into the global advisor's
// view.
func (o *Optimizer) SnapshotTableStats(table string) (*xstats.TableStats, error) {
	if ks, ok := o.source.(*xstats.KeeperSet); ok {
		return ks.CloneTableStats(table)
	}
	ts, err := o.source.TableStats(table)
	if err != nil {
		return nil, err
	}
	return ts.Clone(), nil
}

// StatsFoldCounts reports the live statistics' maintenance work: how
// many change deltas were folded into table statistics and how many
// paths those folds re-derived from their full value multisets (see
// xstats.Keeper.FoldCounts). Both are zero for frozen statistics.
func (o *Optimizer) StatsFoldCounts() (folds, pathRebuilds int64) {
	if ks, ok := o.source.(*xstats.KeeperSet); ok {
		return ks.FoldCounts()
	}
	return 0, 0
}

// ExtractSites rewrites the statement into its normalized predicate
// form and extracts every indexable predicate site: for a predicate
// [rel op lit] attached to step i of the normalized path, the site
// pattern is the linear prefix through step i concatenated with rel.
// Only value comparisons are indexable (existence tests and returns are
// not), matching DB2's XML index eligibility rules.
func ExtractSites(stmt *xquery.Statement) []PredSite {
	norm := stmt.NormalizedPath()
	if len(norm.Steps) == 0 {
		return nil
	}
	var sites []PredSite
	for i, st := range norm.Steps {
		for _, pr := range st.Preds {
			if pr.Op == xpath.OpNone {
				continue
			}
			if !pr.Rel.IsLinear() {
				continue
			}
			prefix := xpath.Path{Steps: norm.Steps[:i+1]}.StripPreds()
			pattern := xpath.Concat(prefix, pr.Rel.StripPreds())
			sites = append(sites, PredSite{
				Ordinal: len(sites),
				Pattern: pattern,
				Op:      pr.Op,
				Lit:     pr.Lit,
			})
		}
	}
	return sites
}

// universalIndexes returns the //* and //@* virtual universal indexes
// of both types, the Enumerate Indexes mode's matching targets.
func universalIndexes(table string) []xindex.Definition {
	return []xindex.Definition{
		{Table: table, Pattern: xpath.MustParsePattern("//*"), Type: xpath.StringVal},
		{Table: table, Pattern: xpath.MustParsePattern("//*"), Type: xpath.NumberVal},
		{Table: table, Pattern: xpath.MustParsePattern("//@*"), Type: xpath.StringVal},
		{Table: table, Pattern: xpath.MustParsePattern("//@*"), Type: xpath.NumberVal},
	}
}

// EnumerateIndexes runs the Enumerate Indexes optimizer mode on one
// statement: it optimizes the statement with the virtual universal
// index planted and reports every index pattern that the index-matching
// step matched against it (paper §IV). The returned definitions are the
// statement's basic candidate indexes.
func (o *Optimizer) EnumerateIndexes(stmt *xquery.Statement) ([]xindex.Definition, error) {
	o.enumerateCalls.Add(1)
	cs, err := o.Compile(stmt)
	if err != nil {
		return nil, err
	}
	sites := cs.sites
	var out []xindex.Definition
	seen := make(map[string]bool)
	for _, site := range sites {
		for _, uni := range universalIndexes(stmt.Table) {
			if !uni.Matches(site.Pattern, site.Lit.Kind) {
				continue
			}
			def := xindex.Definition{Table: stmt.Table, Pattern: site.Pattern, Type: site.Lit.Kind}
			if !seen[def.Key()] {
				seen[def.Key()] = true
				out = append(out, def)
			}
			break
		}
	}
	return out, nil
}

// EvaluateIndexes runs the Evaluate Indexes optimizer mode: it plants
// the given virtual index configuration, optimizes the statement, and
// returns the chosen plan with its estimated cost (paper §III). A nil
// configuration yields the no-index baseline cost.
//
// With the plan cache enabled (EnablePlanCache), a repeated
// (statement, table version, configuration) triple returns the memoized
// plan without re-optimizing and without incrementing EvaluateCalls;
// the returned plan is shared and must be treated as read-only. Keying
// by the statistics version means a table mutation invalidates every
// cached plan for that table: the next evaluation re-optimizes against
// the current statistics instead of serving a stale plan.
func (o *Optimizer) EvaluateIndexes(stmt *xquery.Statement, config []xindex.Definition) (*Plan, error) {
	ts, err := o.tableStats(stmt.Table)
	if err != nil {
		o.evaluateCalls.Add(1)
		return nil, err
	}
	if pc := o.planCache.Load(); pc != nil {
		key := planKey(stmt.Raw, ts.Version, config)
		if p, ok := pc.get(key); ok {
			return p, nil
		}
		o.evaluateCalls.Add(1)
		p, err := o.plan(stmt, ts, config)
		if err != nil {
			return nil, err
		}
		pc.put(key, p)
		return p, nil
	}
	o.evaluateCalls.Add(1)
	return o.plan(stmt, ts, config)
}

// plan is shared by EvaluateIndexes (virtual configs) and the engine
// (real configs): choose the cheapest access plan under the given index
// definitions against one statistics snapshot. All statement-invariant
// quantities come precomputed from the compiled statement; per call
// only the configuration is walked.
func (o *Optimizer) plan(stmt *xquery.Statement, ts *xstats.TableStats, config []xindex.Definition) (*Plan, error) {
	cs := o.compile(stmt, ts)
	base := cs.baseCost
	p := &Plan{
		Stmt: stmt, EstCost: base, EstBaseCost: base,
		EstMatchingDocs:  cs.matchingDocs,
		EstCandidateDocs: cs.docCount,
	}

	if stmt.Kind == xquery.Insert {
		return p, nil // inserts never use indexes
	}
	if len(cs.sites) == 0 || len(config) == 0 {
		return p, nil
	}

	// Index matching: for each site pick the cheapest matching index.
	type choice struct {
		access Access
		cost   float64 // probe cost of this access alone
	}
	var choices []choice
	for si, site := range cs.sites {
		best := choice{cost: math.Inf(1)}
		found := false
		for _, def := range config {
			if def.Table != stmt.Table {
				continue
			}
			ev := cs.siteEvalFor(si, def)
			if !ev.ok {
				continue
			}
			if ev.probe < best.cost {
				best = choice{
					access: Access{Site: site, Index: def, EntriesScanned: ev.entries, DocFraction: cs.siteDocFrac[si]},
					cost:   ev.probe,
				}
				found = true
			}
		}
		if found {
			choices = append(choices, best)
		}
	}
	if len(choices) == 0 {
		return p, nil
	}

	// Index ANDing: add accesses in order of increasing document
	// fraction while each addition lowers the total plan cost.
	sort.Slice(choices, func(i, j int) bool {
		if choices[i].access.DocFraction != choices[j].access.DocFraction {
			return choices[i].access.DocFraction < choices[j].access.DocFraction
		}
		return choices[i].access.Site.Ordinal < choices[j].access.Site.Ordinal
	})
	var accesses []Access
	bestCost := base
	curCost := 0.0
	docFrac := 1.0
	for _, ch := range choices {
		newProbe := curCost + ch.cost
		newFrac := docFrac * ch.access.DocFraction
		total := o.indexPlanCost(cs, newProbe, newFrac)
		if total < bestCost {
			accesses = append(accesses, ch.access)
			bestCost = total
			curCost = newProbe
			docFrac = newFrac
		}
	}
	if len(accesses) > 0 {
		p.Accesses = accesses
		p.EstCost = bestCost
		p.EstCandidateDocs = docFrac * cs.docCount
	}
	return p, nil
}

// indexPlanCost combines probe costs with the fetch-and-verify phase.
func (o *Optimizer) indexPlanCost(cs *CompiledStatement, probeCost, docFrac float64) float64 {
	candidateDocs := docFrac * cs.docCount
	fetch := candidateDocs * cs.avgNodes * CostPerFetchedNode
	cost := CostStatementOverhead + probeCost + fetch
	switch cs.kind {
	case xquery.Delete, xquery.Update:
		cost += cs.matchingDocs * cs.avgNodes * CostPerModifiedNode
	default:
		cost += cs.resultCost
	}
	return cost
}

// estimateMatchingDocs estimates how many documents satisfy all of the
// statement's predicates (independence assumption).
func (o *Optimizer) estimateMatchingDocs(stmt *xquery.Statement, ts *xstats.TableStats) float64 {
	return o.compile(stmt, ts).matchingDocs
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
