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
	"cmp"
	"fmt"
	"math"
	"slices"
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
// compiled statements built against stale versions are rebuilt
// automatically.
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

// The virtual universal index patterns //* and //@*, parsed once.
var (
	anyElement   = xpath.MustParsePattern("//*")
	anyAttribute = xpath.MustParsePattern("//@*")
)

// universalIndexes returns the //* and //@* virtual universal indexes
// of both types, the Enumerate Indexes mode's matching targets.
func universalIndexes(table string) [4]xindex.Definition {
	return [4]xindex.Definition{
		{Table: table, Pattern: anyElement, Type: xpath.StringVal},
		{Table: table, Pattern: anyElement, Type: xpath.NumberVal},
		{Table: table, Pattern: anyAttribute, Type: xpath.StringVal},
		{Table: table, Pattern: anyAttribute, Type: xpath.NumberVal},
	}
}

// EnumerateIndexes runs the Enumerate Indexes optimizer mode on one
// statement: it optimizes the statement with the virtual universal
// index planted and reports every index pattern that the index-matching
// step matched against it (paper §IV). The returned definitions are the
// statement's basic candidate indexes. The result is the only
// allocation.
func (o *Optimizer) EnumerateIndexes(stmt *xquery.Statement) ([]xindex.Definition, error) {
	o.enumerateCalls.Add(1)
	cs, err := o.Compile(stmt)
	if err != nil {
		return nil, err
	}
	out := make([]xindex.Definition, 0, len(cs.sites))
	universal := universalIndexes(stmt.Table)
	for _, site := range cs.sites {
		for _, uni := range universal {
			if !uni.Matches(site.Pattern, site.Lit.Kind) {
				continue
			}
			def := xindex.Definition{Table: stmt.Table, Pattern: site.Pattern, Type: site.Lit.Kind}
			if !slices.ContainsFunc(out, func(d xindex.Definition) bool { return sameDefinition(d, def) }) {
				out = append(out, def)
			}
			break
		}
	}
	return out, nil
}

// sameDefinition reports whether two of a statement's site definitions
// have the same Key. They share the table and their patterns are
// linear, so that is the same type, flag and steps.
func sameDefinition(a, b xindex.Definition) bool {
	return a.Type == b.Type && a.Pattern.Relative == b.Pattern.Relative &&
		slices.EqualFunc(a.Pattern.Steps, b.Pattern.Steps, func(x, y xpath.Step) bool {
			return x.Axis == y.Axis && x.Test == y.Test
		})
}

// EvaluateIndexes runs the Evaluate Indexes optimizer mode: it plants
// the given virtual index configuration, optimizes the statement, and
// returns the chosen plan with its estimated cost (paper §III). A nil
// configuration yields the no-index baseline cost.
func (o *Optimizer) EvaluateIndexes(stmt *xquery.Statement, config []xindex.Definition) (*Plan, error) {
	o.evaluateCalls.Add(1)
	ts, err := o.tableStats(stmt.Table)
	if err != nil {
		return nil, err
	}
	return o.plan(stmt, ts, config)
}

// EvaluateCost is the Evaluate Indexes mode for a caller that reads
// only the plan's cost, as the advisor's benefit evaluation does: it
// returns EvaluateIndexes(stmt, config).EstCost, bit for bit, without
// building the plan, so a call whose probe evaluations are memoized
// allocates nothing. It counts as one Evaluate Indexes call.
func (o *Optimizer) EvaluateCost(stmt *xquery.Statement, config []xindex.Definition) (float64, error) {
	o.evaluateCalls.Add(1)
	ts, err := o.tableStats(stmt.Table)
	if err != nil {
		return 0, err
	}
	cost, _ := o.compile(stmt, ts).choose(config, nil)
	return cost, nil
}

// plan is shared by EvaluateIndexes (virtual configs) and the engine
// (real configs): choose the cheapest access plan under the given index
// definitions against one statistics snapshot.
func (o *Optimizer) plan(stmt *xquery.Statement, ts *xstats.TableStats, config []xindex.Definition) (*Plan, error) {
	cs := o.compile(stmt, ts)
	p := &Plan{Stmt: stmt, EstBaseCost: cs.baseCost, EstMatchingDocs: cs.matchingDocs}
	var docFrac float64
	p.EstCost, docFrac = cs.choose(config, &p.Accesses)
	p.EstCandidateDocs = docFrac * cs.docCount
	return p, nil
}

// choice is the cheapest matching index of one predicate site.
type choice struct {
	si, di  int // the site's position in the statement, the index's in the configuration
	entries float64
	probe   float64 // the probe cost of this access alone
}

// choose picks the statement's cheapest plan under config and returns
// its estimated cost and the fraction of documents its index accesses
// leave (1 for a full scan). With accesses non-nil it appends the
// plan's accesses there. All statement-invariant quantities come
// precomputed from the compiled statement; per call only the
// configuration is walked, and with the probe memo warm nothing is
// allocated but the accesses.
func (cs *CompiledStatement) choose(config []xindex.Definition, accesses *[]Access) (cost, docFrac float64) {
	cost, docFrac = cs.baseCost, 1
	if cs.kind == xquery.Insert || len(cs.sites) == 0 || len(config) == 0 {
		return cost, docFrac // inserts never use indexes
	}

	// Index matching: for each site pick the cheapest matching index,
	// the first in configuration order among equally cheap ones. The
	// probe memo is looked up once per definition, with a key built in
	// a stack buffer.
	var bestBuf [8]choice
	best := bestBuf[:0]
	for si := range cs.sites {
		best = append(best, choice{si: si, di: -1, probe: math.Inf(1)})
	}
	var keyBuf [256]byte
	for di, def := range config {
		if def.Table != cs.table {
			continue
		}
		evs := cs.siteEvalsFor(def, appendDefKey(keyBuf[:0], def))
		for si, ev := range evs {
			if ev.ok && ev.probe < best[si].probe {
				best[si] = choice{si: si, di: di, entries: ev.entries, probe: ev.probe}
			}
		}
	}
	choices := best[:0]
	for _, ch := range best {
		if ch.di >= 0 {
			choices = append(choices, ch)
		}
	}

	// Index ANDing: add accesses in order of increasing document
	// fraction while each addition lowers the total plan cost.
	slices.SortFunc(choices, func(a, b choice) int {
		if fa, fb := cs.siteDocFrac[a.si], cs.siteDocFrac[b.si]; fa != fb {
			if fa < fb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.si, b.si)
	})
	probe, frac := 0.0, 1.0
	for _, ch := range choices {
		newProbe := probe + ch.probe
		newFrac := frac * cs.siteDocFrac[ch.si]
		if total := cs.indexPlanCost(newProbe, newFrac); total < cost {
			if accesses != nil {
				*accesses = append(*accesses, Access{
					Site: cs.sites[ch.si], Index: config[ch.di],
					EntriesScanned: ch.entries, DocFraction: cs.siteDocFrac[ch.si],
				})
			}
			cost, probe, frac = total, newProbe, newFrac
			docFrac = frac
		}
	}
	return cost, docFrac
}

// indexPlanCost combines probe costs with the fetch-and-verify phase.
func (cs *CompiledStatement) indexPlanCost(probeCost, docFrac float64) float64 {
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

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
