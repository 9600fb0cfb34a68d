package optimizer

import (
	"math"
	"sync"

	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
	"xixa/internal/xstats"
)

// CompiledStatement caches everything about one statement that does not
// depend on the index configuration: the extracted predicate sites, the
// per-site pattern statistics, selectivities, and document fractions,
// the estimated matching-document count, and the full-scan base cost.
// Each Evaluate Indexes call during the advisor's search then reduces
// to allocation-light arithmetic over the configuration — the same
// float operations in the same order as uncompiled planning, so plans,
// costs, and call counts are bit-identical.
//
// Compiled statements are cached per (statement, table-stats) pair on
// the optimizer and are safe for concurrent use.
type CompiledStatement struct {
	ts    *xstats.TableStats
	table string
	kind  xquery.Kind

	sites       []PredSite
	siteDocFrac []float64
	// updated is an update's modified-node path: the match path
	// extended by the set path, predicates stripped.
	updated xpath.Path

	// matchingDocs estimates the documents satisfying all predicate
	// sites; docCount and avgNodes snapshot the table statistics the
	// cost formulas read.
	matchingDocs float64
	docCount     float64
	avgNodes     float64
	resultCost   float64
	baseCost     float64

	// siteEvals memoizes, per candidate definition, the index-probe
	// evaluation (matched?, entries scanned, probe cost) of each
	// predicate site, in site order — all invariant across
	// configurations.
	mu        sync.RWMutex
	siteEvals map[string][]siteEval
	// inserted memoizes, per definition and under the same key, the
	// entries an insert's document adds to the index.
	inserted map[string]float64
}

// The probe memo is keyed by the definition's value — its type and the
// axis and name test of each step (predicates play no part in matching
// or in pattern statistics) — not by the identity of its step array.
// Every advisor builds its own Definitions and the serving planner
// parses fresh ones, so an identity key would add an entry per
// definition object and pin every old step array for as long as the
// compiled statement lives; a value key holds one entry per distinct
// pattern, and later advisors hit what earlier ones computed. The key is
// a byte string the map hashes and, on a hash collision, compares in
// full. The planner builds it in a stack buffer once per definition and
// call, and looks it up through a string(b) map index, which Go compiles
// without a copy: only a miss allocates. A miss evaluates every site of
// the statement against the definition at once.

// appendDefKey appends the definition's memo key to b: the type, the
// relative flag, then per step its axis byte (0 or 1, never part of a
// name test) followed by the name test.
func appendDefKey(b []byte, def xindex.Definition) []byte {
	rel := byte(0)
	if def.Pattern.Relative {
		rel = 1
	}
	b = append(b, byte(def.Type), rel)
	for _, st := range def.Pattern.Steps {
		b = append(b, byte(st.Axis))
		b = append(b, st.Test...)
	}
	return b
}

// siteEval is the configuration-invariant part of matching one index
// definition against one predicate site.
type siteEval struct {
	ok      bool // the definition matches the site and has entries
	entries float64
	probe   float64
}

// Compile returns the compiled form of the statement, building and
// caching it on first use. It fails only when the statement's table has
// no collected statistics.
func (o *Optimizer) Compile(stmt *xquery.Statement) (*CompiledStatement, error) {
	ts, err := o.tableStats(stmt.Table)
	if err != nil {
		return nil, err
	}
	return o.compile(stmt, ts), nil
}

// maxCompiledStatements bounds the compiled-statement cache. Advisor
// workloads hold tens of statements, and the serving front end reuses
// one pointer per distinct query text (frontend.Shell keeps at most as
// many), but a long-lived engine executing freshly parsed statements —
// inserts, updates and deletes, or a caller that parses every time —
// would otherwise grow the cache by one entry per statement forever.
// Compiled statements are pure caches, so on overflow the whole map is
// flushed and rebuilt on demand.
const maxCompiledStatements = 4096

// compile fetches or builds the statement's compilation against ts.
func (o *Optimizer) compile(stmt *xquery.Statement, ts *xstats.TableStats) *CompiledStatement {
	if v, ok := o.compiled.Load(stmt); ok {
		cs := v.(*CompiledStatement)
		if cs.ts == ts {
			return cs
		}
	}
	cs := newCompiledStatement(stmt, ts)
	// Concurrent compilations of the same statement produce identical
	// values; whichever lands is correct. Only a new statement counts
	// toward the overflow flush: recompiling a known one after its
	// table's statistics moved replaces its entry and holds no more.
	if _, known := o.compiled.Swap(stmt, cs); !known && o.compiledLen.Add(1) > maxCompiledStatements {
		o.compiled.Range(func(k, _ any) bool {
			o.compiled.Delete(k)
			return true
		})
		o.compiledLen.Store(1)
		o.compiled.Store(stmt, cs)
	}
	return cs
}

func newCompiledStatement(stmt *xquery.Statement, ts *xstats.TableStats) *CompiledStatement {
	cs := &CompiledStatement{
		ts:       ts,
		table:    stmt.Table,
		kind:     stmt.Kind,
		sites:    ExtractSites(stmt),
		docCount: float64(ts.DocCount),
		avgNodes: ts.AvgNodesPerDoc(),
	}
	cs.siteDocFrac = make([]float64, len(cs.sites))
	frac := 1.0
	for i, site := range cs.sites {
		siteStats := ts.ForPattern(site.Pattern, site.Lit.Kind)
		sel := siteStats.Selectivity(site.Op, site.Lit)
		perDoc := ts.EntriesPerDoc(siteStats)
		cs.siteDocFrac[i] = clamp01(sel * perDoc)
		frac *= cs.siteDocFrac[i]
	}
	cs.matchingDocs = frac * cs.docCount
	cs.resultCost = cs.matchingDocs * CostPerResultNode * math.Max(1, float64(len(stmt.Returns)))
	if stmt.Kind == xquery.Update {
		cs.updated = xpath.Concat(stmt.Match.StripPreds(), stmt.SetPath.StripPreds())
	}

	switch stmt.Kind {
	case xquery.Insert:
		n := 0.0
		if stmt.Doc != nil {
			n = float64(stmt.Doc.Len())
		}
		cs.baseCost = CostStatementOverhead + n*CostPerModifiedNode
	case xquery.Delete, xquery.Update:
		cs.baseCost = CostStatementOverhead + float64(ts.TotalNodes)*CostPerScannedNode +
			cs.matchingDocs*cs.avgNodes*CostPerModifiedNode
	default:
		cs.baseCost = CostStatementOverhead + float64(ts.TotalNodes)*CostPerScannedNode +
			cs.resultCost
	}
	return cs
}

// siteEvalsFor returns the memoized (matched, entries, probe)
// evaluation of one definition against each site, in site order. The
// definition's table is assumed to already match the statement's; key
// is its appendDefKey.
func (cs *CompiledStatement) siteEvalsFor(def xindex.Definition, key []byte) []siteEval {
	cs.mu.RLock()
	evs, ok := cs.siteEvals[string(key)]
	cs.mu.RUnlock()
	if ok {
		return evs
	}
	evs = make([]siteEval, len(cs.sites))
	for si := range evs {
		evs[si] = cs.computeSiteEval(si, def)
	}
	cs.mu.Lock()
	if cs.siteEvals == nil {
		cs.siteEvals = make(map[string][]siteEval)
	}
	cs.siteEvals[string(key)] = evs
	cs.mu.Unlock()
	return evs
}

// insertedEntries returns the entries doc, the statement's inserted
// document, adds to an index of def: the nodes the pattern selects, less
// those whose value a numeric index does not key (NaN or non-numeric;
// see xindex.keyFor). The count is memoized by the definition's value.
func (cs *CompiledStatement) insertedEntries(def xindex.Definition, doc *xmltree.Document) float64 {
	var keyBuf [256]byte
	key := appendDefKey(keyBuf[:0], def)
	cs.mu.RLock()
	added, ok := cs.inserted[string(key)]
	cs.mu.RUnlock()
	if ok {
		return added
	}
	for _, id := range xpath.Eval(doc, def.Pattern) {
		if def.Type == xpath.NumberVal {
			if v, ok := doc.NumericValue(id); !ok || math.IsNaN(v) {
				continue
			}
		}
		added++
	}
	cs.mu.Lock()
	if cs.inserted == nil {
		cs.inserted = make(map[string]float64)
	}
	cs.inserted[string(key)] = added
	cs.mu.Unlock()
	return added
}

func (cs *CompiledStatement) computeSiteEval(si int, def xindex.Definition) siteEval {
	site := cs.sites[si]
	if !def.Matches(site.Pattern, site.Lit.Kind) {
		return siteEval{}
	}
	idxStats := cs.ts.ForPattern(def.Pattern, def.Type)
	if idxStats.Entries == 0 {
		return siteEval{}
	}
	sel := idxStats.Selectivity(site.Op, site.Lit)
	entries := sel * float64(idxStats.Entries)
	probe := float64(idxStats.Levels)*CostPerIndexPage + entries*CostPerIndexEntry
	return siteEval{ok: true, entries: entries, probe: probe}
}
